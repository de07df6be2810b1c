// MatrixSnapshot — an immutable, read-optimized image of the all-pairs RTT
// matrix, built for the serving layer (§5's applications: low-RTT circuit
// selection, TIV detours) rather than for measurement bookkeeping.
//
// The measurement store (RttMatrix's hash map) is a write-side structure:
// node-keyed, mutable, and growing while a scan runs. A query path serving
// "millions of clients picking circuits" wants the opposite: a dense
// fingerprint→index table fixed at build time plus a flat n×n RTT array, so
// every lookup is one hash probe (or none, for index-based callers) and one
// array read — no pair-key construction, no lock.
//
// Snapshots are built once from the matrix — O(n²) to lay out the array,
// then one walk over the store's entries to fill it — and never mutated;
// PathServer publishes them through an atomic shared_ptr swap so readers
// always see a complete, internally consistent image. Missing pairs
// are quiet NaNs in the flat array — a partially-converged daemon store is
// a first-class input, and every accessor reports absence instead of
// aborting (the analysis layer's TING_CHECK-on-missing behaviour is
// deliberately not replicated here).
//
// Class invariants, which DetourIndex's kernel relies on:
//   - the array is symmetric: R(i, j) and R(j, i) hold the same bits, so
//     column j is row j and every read can be a contiguous row read;
//   - the diagonal is NaN, so any sum with a self-leg loses every
//     comparison, like a sum with an unmeasured leg.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "dir/fingerprint.h"
#include "ting/rtt_matrix.h"
#include "util/assert.h"
#include "util/time.h"

namespace ting::serve {

/// Storage precision of the flat RTT array. kFloat32 halves the dense image
/// (288 MB → 144 MB at 6,000 relays) at ≤6e-8 relative rounding error —
/// orders of magnitude below measurement noise, and NaN-coding survives the
/// float↔double conversion. Opt-in (default float64) because the wide mode
/// round-trips the stores' doubles bit-exactly.
enum class SnapshotStorage : std::uint8_t { kFloat64, kFloat32 };

class MatrixSnapshot {
 public:
  MatrixSnapshot() = default;

  /// Build from a finished scan's matrix or a daemon's store. `epoch`/
  /// `stamp` identify which checkpoint this image reflects (readers use
  /// them to reason about staleness; see PROTOCOL.md).
  static MatrixSnapshot build(const meas::RttMatrix& matrix,
                              std::uint64_t epoch = 0, TimePoint stamp = {},
                              SnapshotStorage storage = SnapshotStorage::kFloat64);

  std::size_t node_count() const { return nodes_.size(); }
  /// All relays in the snapshot, sorted by fingerprint (index order).
  const std::vector<dir::Fingerprint>& nodes() const { return nodes_; }
  const dir::Fingerprint& node(std::size_t i) const { return nodes_[i]; }

  /// Dense index of a fingerprint, or nullopt if the relay is unknown.
  std::optional<std::size_t> index_of(const dir::Fingerprint& fp) const {
    const auto it = index_.find(fp);
    if (it == index_.end()) return std::nullopt;
    return static_cast<std::size_t>(it->second);
  }

  /// The query hot path: one array read, NaN when the pair is unmeasured
  /// (and on the diagonal — a relay has no RTT to itself worth serving).
  /// Float32 images widen on read (NaN propagates), so every consumer —
  /// DetourIndex, neighbor lists, band tables — is storage-agnostic.
  double rtt_raw(std::size_t i, std::size_t j) const {
    const std::size_t idx = i * nodes_.size() + j;
    return storage_ == SnapshotStorage::kFloat32
               ? static_cast<double>(rtt32_[idx])
               : rtt_[idx];
  }
  bool has(std::size_t i, std::size_t j) const {
    return !std::isnan(rtt_raw(i, j));
  }
  std::optional<double> rtt(std::size_t i, std::size_t j) const {
    const double r = rtt_raw(i, j);
    if (std::isnan(r)) return std::nullopt;
    return r;
  }
  std::optional<double> rtt(const dir::Fingerprint& a,
                            const dir::Fingerprint& b) const;

  /// Row i in storage precision: n contiguous values, R(i, k) at [k]. T is
  /// double for a kFloat64 image and float for a kFloat32 one.
  template <typename T>
  std::span<const T> row(std::size_t i) const {
    const std::vector<T>& flat = image<T>();
    TING_CHECK(!flat.empty() && i < nodes_.size());
    return {flat.data() + i * nodes_.size(), nodes_.size()};
  }

  /// Sum of consecutive-hop RTTs along a path of node indices; nullopt when
  /// any hop is unmeasured (never aborts — the serving layer's contract).
  std::optional<double> path_rtt_ms(const std::vector<std::size_t>& path) const;

  /// Unordered pairs with a measured RTT.
  std::size_t pair_count() const { return pair_count_; }
  /// Measured fraction of the all-pairs set (1.0 for a finished scan).
  double coverage() const;

  std::uint64_t epoch() const { return epoch_; }
  TimePoint stamp() const { return stamp_; }
  SnapshotStorage storage() const { return storage_; }
  /// Heap bytes of the flat RTT array plus the fingerprint index — the
  /// number the float32 mode halves (modulo the index).
  std::size_t memory_bytes() const;

 private:
  template <typename T>
  const std::vector<T>& image() const {
    if constexpr (std::is_same_v<T, float>)
      return rtt32_;
    else
      return rtt_;
  }
  void index_nodes(std::vector<dir::Fingerprint> nodes);
  void set_pair(std::size_t i, std::size_t j, double rtt_ms);

  std::vector<dir::Fingerprint> nodes_;  ///< sorted; index order
  std::unordered_map<dir::Fingerprint, std::uint32_t> index_;
  SnapshotStorage storage_ = SnapshotStorage::kFloat64;
  std::vector<double> rtt_;   ///< n×n, symmetric, NaN = unmeasured (float64)
  std::vector<float> rtt32_;  ///< same image in float32 mode
  std::size_t pair_count_ = 0;
  std::uint64_t epoch_ = 0;
  TimePoint stamp_;
};

}  // namespace ting::serve
