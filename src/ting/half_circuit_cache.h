// HalfCircuitCache — memoized half-circuit measurements (the R_Cx / R_Cy
// terms of Eq. (4)).
//
// A Ting pair measurement builds three circuits, but C_x = (w, x, z) and
// C_y = (w, y, z) depend on a single target relay plus the fixed
// measurement apparatus — so an n-node all-pairs scan re-measures every
// half circuit ~n−1 times. Memoizing R_Cx per relay lets the measurer skip
// the C_x/C_y probes on a fresh hit and cuts per-pair cost from three full
// circuit measurements toward one, without touching Eq. (4)'s cancellation:
// the cached value estimates exactly the same quantity (2·R(h,x) + F_w +
// 2·F_x + F_z + local legs) the skipped probe would have.
//
// Entries are keyed by the measuring host's w fingerprint AND the target
// relay: path latency is drawn per host pair, so a half-circuit minimum
// observed from one measurement host is not valid for another even when
// both sit in the same rack. Staleness mirrors RttMatrix::is_fresh
// (virtual-time timestamps, max-age TTL), persistence is the exact-bits
// TINGHCX1 image, and a churned relay's entries are dropped when the scan
// engines re-resolve it — a relay that left and rejoined the consensus may
// have moved.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "dir/fingerprint.h"
#include "util/time.h"

namespace ting::meas {

class HalfCircuitCache {
 public:
  struct Entry {
    double rtt_ms = 0;
    TimePoint measured_at;
    int samples = 0;

    bool operator==(const Entry&) const = default;
  };

  explicit HalfCircuitCache(
      Duration max_age = Duration::seconds(7 * 24 * 3600))
      : max_age_(max_age) {}

  Duration max_age() const { return max_age_; }
  void set_max_age(Duration d) { max_age_ = d; }

  /// Record a half-circuit minimum measured by apparatus `host_w` (its w
  /// relay's fingerprint) through `relay`. Overwrites older entries.
  void store(const dir::Fingerprint& host_w, const dir::Fingerprint& relay,
             double rtt_ms, TimePoint measured_at, int samples);

  const Entry* lookup(const dir::Fingerprint& host_w,
                      const dir::Fingerprint& relay) const;
  /// The entry for (host_w, relay) if it exists and was measured within
  /// max_age of `now`; nullptr otherwise.
  const Entry* fresh(const dir::Fingerprint& host_w,
                     const dir::Fingerprint& relay, TimePoint now) const;

  /// Drop one apparatus's entry. Returns whether one existed.
  bool erase(const dir::Fingerprint& host_w, const dir::Fingerprint& relay);
  /// Churn invalidation: drop `relay`'s entries under every apparatus (its
  /// descriptor changed; all memoized minima are suspect). Returns the
  /// number of entries dropped.
  std::size_t erase_relay(const dir::Fingerprint& relay);

  /// Copy every entry of `other` into this cache, keeping whichever side's
  /// entry is fresher (larger measured_at; ties keep the existing entry).
  /// The scan engine combines its worlds' stores this way: deterministic
  /// worlds store identical values with zero timestamps, so the result is
  /// order-independent there by construction.
  void merge_freshest(const HalfCircuitCache& other);
  /// Copy every entry of `other` into this cache, replacing ours whatever
  /// the stamps: `other` holds stores made after ours (a scan world's, or a
  /// journal's), and an equal stamp must not keep a half that was dropped
  /// and measured again after churn.
  void overwrite(const HalfCircuitCache& other);
  /// The entries `base` lacks or holds with a different value: what a scan
  /// world stored into its private copy of `base`.
  HalfCircuitCache stores_since(const HalfCircuitCache& base) const;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  /// Observer invoked after every store() — the scan journal's hook for
  /// recording half-circuit measurements as they land. Deliberately NOT
  /// fired by from_bin / the merges / copy construction: those move
  /// already-recorded entries around, and re-observing them would duplicate
  /// journal records. The observer is copied along with the cache, so the
  /// scan engine's per-world copies keep journaling (the journal itself is
  /// thread-safe).
  using StoreObserver =
      std::function<void(const dir::Fingerprint& host_w,
                         const dir::Fingerprint& relay, const Entry& entry)>;
  void set_store_observer(StoreObserver observer) {
    store_observer_ = std::move(observer);
  }

  /// The only persisted form: a compact exact-bits binary image (magic
  /// "TINGHCX1", u64 count, fixed 60-byte little-endian records in key
  /// order, so equal caches serialize to equal bytes). Exact bits are what
  /// let a re-scan or a resumed run memoize the very R_Cx values a fresh
  /// probe would measure, so its matrix matches byte-for-byte. Loading does
  /// not fire the store observer. max_age is not serialized — it is the
  /// consumer's policy, not the data's.
  std::string to_bin() const;
  static HalfCircuitCache from_bin(const std::string& bin);
  void save_bin(const std::string& path) const;
  static HalfCircuitCache load_bin(const std::string& path);

  static constexpr char kBinMagic[] = "TINGHCX1";

 private:
  using Key = std::pair<dir::Fingerprint, dir::Fingerprint>;  // (host_w, relay)
  std::map<Key, Entry> entries_;
  Duration max_age_;
  StoreObserver store_observer_;
};

}  // namespace ting::meas
