// RttMatrix — the all-pairs latency dataset Ting produces, with the cache
// semantics §4.6 argues for (measurements are stable over a week, so
// "taking measurements with Ting infrequently and caching them is
// sufficient").
//
// One class serves every role the dataset plays: a scan's and a daemon
// epoch's scratch matrix, the daemon's persistent store, and the input of
// the serving layer and analysis/*. A real consensus is ~6,000 relays
// (§5.3), i.e. ~18M unordered pairs, and a continuous scan holds whatever
// subset it has measured so far while the pair set churns.
//
// A relay table interns fingerprints to dense u32 ids (assigned on first
// insert, never reused within one object), so pairs live in a hash map
// keyed by the packed id pair (O(1) lookup, no dense allocation). Each id
// also carries a presence row — a bitset over the other ids, with a bit set
// exactly when that pair is stored — which answers the delta planner's
// "which pairs were never measured?", the coverage census and nodes() with
// bit tests and popcounts instead of hashing. A freshness wheel indexes the
// pairs by stamp for TTL queries. Ids are private: nothing observable
// depends on their order (plans follow the caller's node list, artifacts
// follow fingerprint order).
//
// Two on-disk formats, both written via util/atomic_file in canonical pair
// order: the CSV schema of the original project's published datasets, and
// the compact TINGSMX1 binary image whose exact bits the daemon's
// crash-resume check compares. load() sniffs which one a file holds.
//
// merge() is freshest-wins with a total-order tiebreak, making it
// commutative and associative: daemon epochs and replicated stores merge in
// any order and agree bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dir/fingerprint.h"
#include "util/rng.h"
#include "util/time.h"

namespace ting::meas {

class RttMatrix {
 public:
  struct Entry {
    double rtt_ms = 0;
    TimePoint measured_at;
    int samples = 0;
  };

  /// Magic prefix of the binary format (8 bytes, no terminator on disk).
  static constexpr char kBinMagic[] = "TINGSMX1";
  /// Bytes per binary record: fp_a(20) fp_b(20) rtt_bits(8) at_ns(8)
  /// samples(4), little-endian fixed-width fields.
  static constexpr std::size_t kBinRecordSize = 60;

  /// Record a measurement (unordered pair; overwrites unconditionally —
  /// freshest-wins arbitration is merge()'s job).
  void set(const dir::Fingerprint& a, const dir::Fingerprint& b, double rtt_ms,
           TimePoint measured_at = {}, int samples = 0);

  std::optional<double> rtt(const dir::Fingerprint& a,
                            const dir::Fingerprint& b) const;
  const Entry* entry(const dir::Fingerprint& a,
                     const dir::Fingerprint& b) const;
  bool contains(const dir::Fingerprint& a, const dir::Fingerprint& b) const;
  /// A cached value is fresh if measured within `max_age` of `now`.
  bool is_fresh(const dir::Fingerprint& a, const dir::Fingerprint& b,
                TimePoint now, Duration max_age) const;

  /// Keep the fresher of the two entries for every pair. The winner is
  /// decided by a total order — (measured_at, rtt bit pattern, samples),
  /// larger wins — so merge is commutative and associative: daemon epochs
  /// and replicated stores converge to the same matrix in any merge order.
  void merge(const RttMatrix& other);

  /// Fold one scan epoch's results in, restamping every entry to `stamp`.
  /// The deterministic engine records zero timestamps (worlds have
  /// unrelated virtual clocks); the daemon owns the epoch clock, so it
  /// stamps results at absorption time and TTL decisions are identical
  /// whether an epoch ran uninterrupted or resumed after a crash.
  void absorb(const RttMatrix& results, TimePoint stamp);

  /// Drop every pair touching `relay` (it left the consensus for good, or
  /// its descriptor changed enough that old estimates are suspect).
  /// Returns the number of pairs dropped. O(degree): the relay's presence
  /// row names exactly the entries to erase. The relay keeps its id.
  std::size_t erase_relay(const dir::Fingerprint& relay);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Current entry-table load factor (capped at kMaxLoadFactor once
  /// reserve_pairs has pinned the policy).
  float load_factor() const { return entries_.load_factor(); }
  /// All distinct relays appearing in the matrix (a non-empty presence
  /// row), sorted.
  std::vector<dir::Fingerprint> nodes() const;
  /// All recorded RTT values, in canonical pair order.
  std::vector<double> values() const;

  /// One stored pair with its age — what the delta planner prioritizes.
  struct PairAge {
    dir::Fingerprint a, b;  ///< canonical order (a < b)
    TimePoint measured_at;
  };
  /// Every stored pair whose entry is older than `max_age` at `now`,
  /// oldest first (ties broken by pair, so the order is deterministic).
  /// Served from the freshness wheel: O(expired + stale index records), not
  /// O(size) — the delta planner calls this every epoch.
  std::vector<PairAge> expired_pairs(TimePoint now, Duration max_age) const;

  /// The never-measured pairs among `nodes` (distinct relays).
  struct MissingPairs {
    std::size_t count = 0;  ///< unordered pairs of `nodes` with no entry
    /// The first `limit` of them as index pairs (i < j) into `nodes`, in
    /// lexicographic order.
    std::vector<std::pair<std::size_t, std::size_t>> first;
  };
  /// The delta planner's census: counts by popcount over the presence rows
  /// and emits by bit tests in node-index order, stopping at the `limit`th:
  /// O(n²/64) plus at most one bit test per pair, with no hashing beyond
  /// one id lookup per node.
  MissingPairs missing_pairs(const std::vector<dir::Fingerprint>& nodes,
                             std::size_t limit) const;

  /// Every stored pair among `nodes` (distinct relays) as f(i, j, entry),
  /// with i < j indices into `nodes`, in no particular order. One pass over
  /// the entries after one id lookup per node: O(|nodes| + size()), with no
  /// per-pair fingerprint hashing or probing — how a serve snapshot fills.
  template <typename F>
  void for_each_pair(const std::vector<dir::Fingerprint>& nodes, F&& f) const {
    constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
    std::vector<std::size_t> at(relays_.size(), kAbsent);  // id -> index
    for (std::size_t i = 0; i < nodes.size(); ++i)
      if (const RelayId id = find_relay(nodes[i]); id != kNoRelay) at[id] = i;
    for (const auto& [k, e] : entries_) {
      const std::size_t i = at[lo(k)], j = at[hi(k)];
      if (i == kAbsent || j == kAbsent) continue;
      if (i < j)
        f(i, j, e);
      else
        f(j, i, e);
    }
  }

  /// Freshness census over the all-pairs set of `nodes`.
  struct CoverageCount {
    std::size_t total = 0;    ///< unordered pairs of `nodes`
    std::size_t fresh = 0;    ///< measured within `max_age` of `now`
    std::size_t stale = 0;    ///< measured, but expired
    std::size_t missing = 0;  ///< never measured
    double coverage() const {
      return total == 0 ? 1.0
                        : static_cast<double>(fresh) / static_cast<double>(total);
    }
  };
  /// The daemon's convergence criterion and the analysis-side view of a
  /// store's health. Present pairs come from popcounts over the members'
  /// presence rows, stale ones off the freshness wheel; fresh is the
  /// difference.
  CoverageCount coverage(const std::vector<dir::Fingerprint>& nodes,
                         TimePoint now, Duration max_age) const;

  /// Estimated heap footprint in bytes: hash-node payload + chaining
  /// overhead per entry, the bucket pointer array, the relay table (records,
  /// presence rows, fingerprint index), and the freshness wheel (one packed
  /// key per live-or-stale index record plus a tree node per distinct
  /// stamp). An estimate — allocator rounding is not modeled — but it moves
  /// with the store, which is what the daemon status lines and the 18M-entry
  /// bench profile need.
  std::size_t memory_bytes() const;

  /// Bulk-load rehash policy: pin the load factor and size the bucket array
  /// once up front instead of paying log2(n) incremental rehash storms while
  /// millions of records stream in (from_bin and merge call this; callers
  /// that fill via set() in a loop should too).
  void reserve_pairs(std::size_t pairs);

  /// Target load factor for the entry table. Below libstdc++'s default 1.0
  /// to keep lookup chains short for the planner's per-epoch probes, but
  /// high enough that the bucket array stays a minor term next to the
  /// 18M-entry node storage.
  static constexpr float kMaxLoadFactor = 0.9f;

  // ---- persistence ----------------------------------------------------------
  /// CSV with header "fp_a,fp_b,rtt_ms,measured_at_ns,samples" (canonical
  /// pair order). CSV prints 6 significant digits; the binary format is the
  /// exact-bits one. from_csv raises CheckError unless line 1 is that
  /// header.
  std::string to_csv() const;
  static RttMatrix from_csv(const std::string& csv);
  void save_csv(const std::string& path) const;
  static RttMatrix load_csv(const std::string& path);

  /// Compact binary image: kBinMagic, u64 record count, then fixed 60-byte
  /// records in canonical pair order. Doubles are IEEE-754 bit patterns, so
  /// save/load round-trips exactly and equal matrices serialize to equal
  /// bytes — the property the daemon's crash-resume check compares.
  /// from_bin raises CheckError unless the image is exactly 16 bytes plus
  /// `count` records; a loaded matrix assigns ids in record order.
  std::string to_bin() const;
  static RttMatrix from_bin(const std::string& bin);
  void save_bin(const std::string& path) const;
  static RttMatrix load_bin(const std::string& path);

  /// Load a file of either format: the binary image if it starts with
  /// kBinMagic, CSV otherwise. Scan CSVs and daemon stores are therefore
  /// interchangeable inputs to every reader.
  static RttMatrix load(const std::string& path);

 private:
  /// Dense relay id: an index into relays_.
  using RelayId = std::uint32_t;
  static constexpr RelayId kNoRelay = 0xffffffffu;
  /// An unordered pair of relay ids packed as (lower << 32 | higher).
  using PairKey = std::uint64_t;
  struct PairKeyHash {
    // Ids are small dense integers, so identity hashing would alias whole
    // lattices of keys onto one bucket; mix the bits first.
    std::size_t operator()(PairKey k) const noexcept { return mix64(k); }
  };
  struct Relay {
    dir::Fingerprint fp;
    std::uint32_t degree = 0;  ///< stored pairs touching this relay
    /// Presence row: bit j is set exactly when pair (this, j) is stored.
    /// Grown on demand, so a missing word reads as all-absent.
    std::vector<std::uint64_t> row;
  };
  /// Entries in canonical pair order: relays ranked by fingerprint once,
  /// each entry keyed by (lower rank << 32 | higher rank).
  struct CanonicalOrder {
    std::vector<RelayId> by_rank;  ///< ids in fingerprint order
    std::vector<std::pair<std::uint64_t, const Entry*>> items;
    const dir::Fingerprint& fp_a(const RttMatrix& m, std::size_t k) const {
      return m.relays_[by_rank[items[k].first >> 32]].fp;
    }
    const dir::Fingerprint& fp_b(const RttMatrix& m, std::size_t k) const {
      return m.relays_[by_rank[items[k].first & 0xffffffffu]].fp;
    }
  };

  static PairKey pack(RelayId a, RelayId b) {
    return a < b ? (PairKey{a} << 32) | b : (PairKey{b} << 32) | a;
  }
  static RelayId lo(PairKey k) { return static_cast<RelayId>(k >> 32); }
  static RelayId hi(PairKey k) { return static_cast<RelayId>(k); }
  /// True when `l` beats `r` under the merge total order.
  static bool fresher(const Entry& l, const Entry& r);

  RelayId intern(const dir::Fingerprint& fp);
  /// kNoRelay when `fp` was never interned here.
  RelayId find_relay(const dir::Fingerprint& fp) const;
  /// Presence bit of pair (a, b); false for kNoRelay or a == b.
  bool present(RelayId a, RelayId b) const;
  /// Set the presence bits of a newly inserted pair.
  void mark(RelayId a, RelayId b);
  /// `other`'s relay ids mapped into this matrix (interning as needed):
  /// one fingerprint lookup per relay, not per entry.
  std::vector<RelayId> translate(const RttMatrix& other);
  /// Insert or overwrite pair (a, b), keeping rows and wheel in step.
  void put(RelayId a, RelayId b, const Entry& e);
  /// Member mask over ids for `nodes` (relays unknown here are skipped).
  std::vector<std::uint64_t> member_mask(
      const std::vector<dir::Fingerprint>& nodes) const;
  /// Stored pairs with both ends in `mask`.
  std::size_t present_pairs(const std::vector<std::uint64_t>& mask) const;
  /// Keys of every entry older than `max_age` at `now`, each once, sorted.
  std::vector<PairKey> expired_keys(TimePoint now, Duration max_age) const;
  CanonicalOrder canonical_order() const;

  /// Append an index record for `k` at stamp `at` to the freshness wheel.
  void wheel_insert(PairKey k, TimePoint at);
  /// Rebuild the wheel from entries_ once stale records outnumber live ones.
  void wheel_maybe_compact();

  std::vector<Relay> relays_;
  std::unordered_map<dir::Fingerprint, RelayId> id_of_;
  std::unordered_map<PairKey, Entry, PairKeyHash> entries_;

  // Freshness wheel: measured_at (ns) -> pair keys recorded at that stamp,
  // bucket order ascending so expired_pairs() walks oldest-first and stops
  // at the TTL horizon. Maintained lazily: overwrites and erasures leave the
  // old record in place (counted in wheel_garbage_) and enumeration skips
  // records whose stamp no longer matches the live entry; a full rebuild
  // triggers when garbage outgrows the live set, so amortized maintenance is
  // O(1) per mutation and enumeration is O(expired + garbage), never
  // O(size). The daemon stamps whole epochs with one clock value, so bucket
  // counts stay tiny in practice.
  std::map<std::int64_t, std::vector<PairKey>> wheel_;
  std::size_t wheel_garbage_ = 0;
};

}  // namespace ting::meas
