// Triangle-inequality violations in the Tor latency graph (§5.2.1): pairs
// (s, d) where some relay r gives R(s,r) + R(r,d) < R(s,d). The paper finds
// a TIV for 69% of pairs in the 50-node dataset, with a median best saving
// of 7.5% and a top-decile saving of 28%+.
#pragma once

#include <vector>

#include "serve/snapshot.h"

namespace ting::analysis {

/// One pair's best detour, by snapshot node index.
struct TivFinding {
  std::size_t a = 0, b = 0;  ///< the endpoint pair, a < b
  std::size_t via = 0;       ///< best (lowest-detour-RTT) relay r
  double direct_ms = 0;      ///< R(a, b)
  double detour_ms = 0;      ///< R(a, r) + R(r, b)
  /// Fractional saving, (direct − detour) / direct, in (0, 1).
  double savings() const { return (direct_ms - detour_ms) / direct_ms; }
};

/// Everything the §5.2.1 analysis wants from one O(n³) serve::DetourIndex
/// build: the per-pair findings and the aggregate fraction.
struct TivSummary {
  /// Best TIV per pair that has one, ordered by (a, b).
  std::vector<TivFinding> findings;
  /// Pairs with a measured direct RTT (the denominator — on a sparse
  /// matrix this is less than C(n, 2)).
  std::size_t measured_pairs = 0;
  /// findings.size() / measured_pairs (0 when nothing is measured) — the
  /// paper's 69% statistic.
  double fraction = 0;
};
TivSummary tiv_summary(const serve::MatrixSnapshot& snapshot);

}  // namespace ting::analysis
