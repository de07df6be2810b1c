#include "analysis/tiv.h"

#include "serve/detour_index.h"

namespace ting::analysis {

TivSummary tiv_summary(const serve::MatrixSnapshot& snapshot) {
  // The index breaks detour ties toward the lowest relay index, like a
  // first-wins scan over the relays in index order.
  TivSummary out;
  const auto detours = serve::DetourIndex::build(snapshot);
  const std::size_t n = snapshot.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const serve::DetourIndex::Detour d = detours.at(snapshot, i, j);
      if (!d.tiv) continue;
      out.findings.push_back(
          {i, j, d.via, snapshot.rtt_raw(i, j), d.detour_ms});
    }
  }
  out.measured_pairs = detours.measured_pairs();
  out.fraction = detours.tiv_fraction();
  return out;
}

}  // namespace ting::analysis
