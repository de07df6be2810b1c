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
#include <unordered_map>
#include <vector>

#include "dir/fingerprint.h"
#include "ting/rtt_matrix.h"
#include "util/assert.h"
#include "util/time.h"

namespace ting::serve {

class MatrixSnapshot {
 public:
  MatrixSnapshot() = default;

  /// Build from a finished scan's matrix or a daemon's store. `epoch`/
  /// `stamp` identify which checkpoint this image reflects (readers use
  /// them to reason about staleness; see PROTOCOL.md).
  static MatrixSnapshot build(const meas::RttMatrix& matrix,
                              std::uint64_t epoch = 0, TimePoint stamp = {});

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
  double rtt_raw(std::size_t i, std::size_t j) const {
    return rtt_[i * nodes_.size() + j];
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

  /// Row i: n contiguous values, R(i, k) at [k].
  std::span<const double> row(std::size_t i) const {
    TING_CHECK(i < nodes_.size());
    return {rtt_.data() + i * nodes_.size(), nodes_.size()};
  }

  /// Sum of consecutive-hop RTTs along a path of node indices; nullopt when
  /// any hop is unmeasured (never aborts — the serving layer's contract).
  std::optional<double> path_rtt_ms(const std::vector<std::size_t>& path) const;

  /// Unordered pairs with a measured RTT.
  std::size_t pair_count() const { return pair_count_; }
  /// Mean RTT over the measured pairs (Algorithm 1's µ), NaN when there
  /// are none. Summed over the upper triangle in row order, which is the
  /// store's canonical pair order, so it has the bits of a sum over
  /// RttMatrix::values().
  double mean_rtt() const;
  /// Measured fraction of the all-pairs set (1.0 for a finished scan).
  double coverage() const;

  std::uint64_t epoch() const { return epoch_; }
  TimePoint stamp() const { return stamp_; }
  /// Heap bytes of the flat RTT array plus the fingerprint index.
  std::size_t memory_bytes() const;

 private:
  void index_nodes(std::vector<dir::Fingerprint> nodes);
  void set_pair(std::size_t i, std::size_t j, double rtt_ms);

  std::vector<dir::Fingerprint> nodes_;  ///< sorted; index order
  std::unordered_map<dir::Fingerprint, std::uint32_t> index_;
  std::vector<double> rtt_;  ///< n×n, symmetric, NaN = unmeasured
  std::size_t pair_count_ = 0;
  std::uint64_t epoch_ = 0;
  TimePoint stamp_;
};

}  // namespace ting::serve
