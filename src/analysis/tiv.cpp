#include "analysis/tiv.h"

#include "serve/detour_index.h"
#include "serve/snapshot.h"

namespace ting::analysis {

std::optional<TivFinding> best_tiv(const meas::RttMatrix& matrix,
                                   const dir::Fingerprint& a,
                                   const dir::Fingerprint& b) {
  const auto direct = matrix.rtt(a, b);
  if (!direct.has_value()) return std::nullopt;
  std::optional<TivFinding> best;
  for (const dir::Fingerprint& r : matrix.nodes()) {
    if (r == a || r == b) continue;
    const auto leg1 = matrix.rtt(a, r);
    const auto leg2 = matrix.rtt(r, b);
    if (!leg1.has_value() || !leg2.has_value()) continue;
    const double detour = *leg1 + *leg2;
    if (detour >= *direct) continue;
    if (!best.has_value() || detour < best->detour_ms) {
      TivFinding f;
      f.a = a;
      f.b = b;
      f.detour = r;
      f.direct_ms = *direct;
      f.detour_ms = detour;
      best = f;
    }
  }
  return best;
}

TivSummary tiv_summary(const meas::RttMatrix& matrix) {
  // One snapshot build (O(n²)) + one DetourIndex build (O(n³)) replaces the
  // historical per-pair best_tiv scans — and the fraction comes from the
  // same pass as the findings instead of a second full scan. Node order is
  // identical (both sides sort fingerprints) and the index breaks detour
  // ties toward the lowest relay index, matching best_tiv's first-wins
  // iteration, so the findings are bit-for-bit what the old loop produced.
  TivSummary out;
  const auto snapshot = serve::MatrixSnapshot::build(matrix);
  const auto detours = serve::DetourIndex::build(snapshot);
  const std::size_t n = snapshot.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const serve::DetourIndex::Detour d = detours.at(snapshot, i, j);
      if (!d.tiv) continue;
      TivFinding f;
      f.a = snapshot.node(i);
      f.b = snapshot.node(j);
      f.detour = snapshot.node(d.via);
      f.direct_ms = snapshot.rtt_raw(i, j);
      f.detour_ms = d.detour_ms;
      out.findings.push_back(std::move(f));
    }
  }
  out.measured_pairs = detours.measured_pairs();
  out.fraction = detours.tiv_fraction();
  return out;
}

std::vector<TivFinding> find_all_tivs(const meas::RttMatrix& matrix) {
  return tiv_summary(matrix).findings;
}

double fraction_pairs_with_tiv(const meas::RttMatrix& matrix) {
  return tiv_summary(matrix).fraction;
}

}  // namespace ting::analysis
