// Figure 14: CDF of the RTT saving from routing via the best
// triangle-inequality-violation detour instead of the direct path.
//
// Paper headline: 69% of pairs have at least one TIV; median saving 7.5%;
// 10% of TIVs save 28% or more.
#include "bench_common.h"

#include "analysis/tiv.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Figure 14", "CDF of RTT savings from the best TIV detour");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const TivSummary summary =
      tiv_summary(serve::MatrixSnapshot::build(ds.matrix));
  const auto& tivs = summary.findings;
  const double frac = summary.fraction;

  std::vector<double> savings_pct;
  for (const auto& t : tivs) savings_pct.push_back(100.0 * t.savings());
  print_cdf(Cdf(savings_pct), "rtt_savings_percent", 30);

  std::printf("\n# pairs with a TIV\t%.1f%% (paper: 69%%)\n", 100 * frac);
  if (!savings_pct.empty()) {
    std::printf("# median saving\t%.1f%% (paper: 7.5%%)\n",
                quantile(savings_pct, 0.5));
    std::printf("# p90 saving\t%.1f%% (paper: 28%%)\n",
                quantile(savings_pct, 0.9));
  }
  return 0;
}
