// DetourIndex — the precomputed "best via-relay per pair" table (ShorTor's
// central data structure, and the §5.2.1 TIV scan turned into an index).
//
// For every unordered pair (i, j) of snapshot nodes the index records the
// relay k ≠ i, j minimizing R(i,k) + R(k,j) over relays where both legs are
// measured — and only that: one u32 per pair. Everything else a query wants
// is read back off the snapshot the index was built from: the detour's RTT
// is the same add the build compared, the direct RTT is one array read, and
// a triangle-inequality violation is the detour beating a measured direct.
// A query is one O(1) table read, and the aggregate TIV statistics are
// counted once per build or update.
//
// Build is O(n³) once per snapshot, as one min-plus kernel: the snapshot is
// symmetric with a NaN diagonal, so the sums for pair (i, j) are
// row_i[k] + row_j[k] over two contiguous rows, taken in 16-byte vectors
// for a 2×4 tile of pairs and 64 values of k at a time; via is then the
// first k in the first chunk that reached the minimum, exactly what a
// k-ascending scalar scan picks. On one core of a shared 4-CPU Xeon that is
// ~0.13–0.25 s at 953 relays and ~1.3 s at 1,911.
//
// Delta epochs don't pay that again: a changed matrix entry (a, b) only
// appears in detour sums R(i,k) + R(k,j) where i or j is one of {a, b} (the
// entry is one leg, so one endpoint of the served pair names it), and only
// in direct terms where {i,j} = {a,b}. Every affected pair therefore
// touches a changed relay, and update(snapshot, changed) recomputes exactly
// the pairs incident to changed relays — O(|changed| · n²) through the same
// kernel, the same shape as the daemon's delta worklist itself. A pair it
// does not recompute keeps its via, and its legs and direct entry, being
// unchanged, derive the same values from the new snapshot as from the old.
//
// Like the snapshot it belongs to, a built index is immutable in the
// serving path: PathServer bundles {snapshot, index} into one atomically
// swapped state, so readers never observe an index mid-update.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "serve/snapshot.h"

namespace ting::serve {

class DetourIndex {
 public:
  /// What the index knows about one unordered pair: the stored via plus
  /// what the snapshot says about it.
  struct Detour {
    /// Best via-relay (node index), or kNone when no relay has both legs
    /// measured.
    std::uint32_t via = kNone;
    /// R(i, via) + R(via, j); +inf when via == kNone.
    double detour_ms = std::numeric_limits<double>::infinity();
    /// True iff the direct RTT is measured (the TIV denominator tracks
    /// these).
    bool measured = false;
    /// True iff the direct RTT is measured and the detour beats it — the
    /// pair has a triangle-inequality violation.
    bool tiv = false;
  };
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  DetourIndex() = default;

  /// Full O(n³) build over every pair of `snapshot` nodes.
  static DetourIndex build(const MatrixSnapshot& snapshot);

  /// Recompute only pairs incident to `changed` relays (node indices into
  /// `snapshot`, which must have the same node set this index was built
  /// from), then recount the TIV counters in one O(n²) pass. Sound for any
  /// set of entry changes confined to those relays — see the header comment
  /// for the argument.
  void update(const MatrixSnapshot& snapshot,
              const std::vector<std::size_t>& changed);

  /// O(1): pair (i, j)'s entry, derived from its via and `snapshot`, the
  /// snapshot this index was last built or updated from. i != j, both <
  /// node_count().
  Detour at(const MatrixSnapshot& snapshot, std::size_t i,
            std::size_t j) const;

  std::size_t node_count() const { return n_; }
  /// Pairs whose direct RTT is measured (the TIV denominator).
  std::size_t measured_pairs() const { return measured_pairs_; }
  /// Pairs with a TIV (the paper's 69% numerator).
  std::size_t tiv_pairs() const { return tiv_pairs_; }
  /// Fraction of measured pairs with a TIV, from the counters.
  double tiv_fraction() const {
    return measured_pairs_ == 0
               ? 0.0
               : static_cast<double>(tiv_pairs_) /
                     static_cast<double>(measured_pairs_);
  }
  /// Heap bytes of the via table: 4 per unordered pair.
  std::size_t memory_bytes() const {
    return via_.capacity() * sizeof(std::uint32_t);
  }

 private:
  /// Triangular storage index for the unordered pair (i, j).
  std::size_t tri(std::size_t i, std::size_t j) const {
    if (i > j) std::swap(i, j);
    return i * n_ - i * (i + 1) / 2 + (j - i - 1);
  }
  /// Count measured and TIV pairs from the vias and `snapshot`.
  void recount(const MatrixSnapshot& snapshot);

  std::size_t n_ = 0;
  std::vector<std::uint32_t> via_;  ///< n·(n−1)/2 entries, tri() order
  std::size_t measured_pairs_ = 0;
  std::size_t tiv_pairs_ = 0;
};

}  // namespace ting::serve
