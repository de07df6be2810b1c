// Figure 15: TIV detour RTT vs the default (direct) path RTT, with the
// y = x and 30%-decrease reference lines.
//
// Paper shape: TIV-capable pairs are spread across the whole RTT range, not
// confined to slow or fast paths; most points sit just below y = x with a
// minority of deep detours.
#include "bench_common.h"

#include "analysis/tiv.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Figure 15", "TIV detour RTT vs default-path RTT");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const auto tivs =
      tiv_summary(serve::MatrixSnapshot::build(ds.matrix)).findings;

  std::printf("# default_rtt_ms\tdetour_rtt_ms\n");
  for (const auto& t : tivs)
    std::printf("%.1f\t%.1f\n", t.direct_ms, t.detour_ms);

  // Spread of TIV-capable pairs across RTT quartiles of the full dataset.
  const Cdf all_rtts(ds.matrix.values());
  int per_quartile[4] = {0, 0, 0, 0};
  for (const auto& t : tivs) {
    const double q = all_rtts.fraction_at_or_below(t.direct_ms);
    per_quartile[std::min(3, static_cast<int>(q * 4))]++;
  }
  std::printf("\n# TIV-capable pairs per direct-RTT quartile\t%d/%d/%d/%d "
              "(paper: spread across the range)\n",
              per_quartile[0], per_quartile[1], per_quartile[2],
              per_quartile[3]);
  int deep = 0;
  for (const auto& t : tivs)
    if (t.savings() >= 0.30) ++deep;
  std::printf("# detours below the 30%%-decrease line\t%d of %zu\n", deep,
              tivs.size());
  return 0;
}
