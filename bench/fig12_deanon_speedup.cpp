// Figure 12: fraction of the network an attacker must probe to deanonymize
// a circuit, for the three strategies of §5.1, over 1000 simulated runs —
// plus the bandwidth-weighted variant from the §5.1.2 footnote.
//
// Paper headline: medians 72% (RTT-unaware), 62% (ignore too-large), 48%
// (+ informed selection) — a 1.5x speedup; weighted variant: ~2x vs probing
// in decreasing weight order.
#include "bench_common.h"

#include "analysis/deanon.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Figure 12", "probes needed to deanonymize, by attacker strategy");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const auto snapshot = serve::MatrixSnapshot::build(ds.matrix);
  const DeanonWorld world(snapshot);

  const int kRuns = scaled(1000, 100);
  struct Row {
    const char* label;
    Strategy strategy;
    bool weighted;
  };
  const Row rows[] = {
      {"rtt_unaware", Strategy::kRttUnaware, false},
      {"ignore_too_large", Strategy::kIgnoreTooLarge, false},
      {"informed_selection", Strategy::kInformed, false},
  };

  double unaware_median = 0, informed_median = 0;
  for (const Row& row : rows) {
    Rng circuit_rng(42), probe_rng(43);
    std::vector<double> fractions;
    for (int i = 0; i < kRuns; ++i) {
      const CircuitInstance c = sample_circuit(world, circuit_rng, false);
      fractions.push_back(
          deanonymize(world, c, row.strategy, probe_rng).fraction_probed);
    }
    std::printf("\n# series %s (fraction of nodes tested)\n", row.label);
    print_cdf(Cdf(fractions), "fraction_tested", 25);
    const double med = quantile(fractions, 0.5);
    std::printf("# median\t%.3f\n", med);
    if (row.strategy == Strategy::kRttUnaware) unaware_median = med;
    if (row.strategy == Strategy::kInformed) informed_median = med;
  }
  std::printf("\n# medians paper vs measured\t0.72/0.62/0.48 — see series "
              "above\n");
  std::printf("# informed speedup over unaware\t%.2fx (paper: 1.5x)\n",
              unaware_median / informed_median);

  // ---- weighted variant (§5.1.2 footnote) --------------------------------
  const DeanonWorld weighted_world(snapshot, ds.weights);
  double base_med = 0, informed_w_med = 0;
  for (const Row& row : {Row{"weight_ordered", Strategy::kWeightOrdered, true},
                         Row{"informed_weighted", Strategy::kInformed, true}}) {
    Rng circuit_rng(44), probe_rng(45);
    std::vector<double> fractions;
    for (int i = 0; i < kRuns; ++i) {
      const CircuitInstance c =
          sample_circuit(weighted_world, circuit_rng, true);
      fractions.push_back(
          deanonymize(weighted_world, c, row.strategy, probe_rng)
              .fraction_probed);
    }
    const double med = quantile(fractions, 0.5);
    std::printf("\n# weighted series %s: median %.3f mean %.3f\n", row.label,
                med, mean_of(fractions));
    if (row.strategy == Strategy::kWeightOrdered) base_med = med;
    else informed_w_med = med;
  }
  std::printf("\n# weighted informed speedup vs weight-ordered\t%.2fx "
              "(paper: 2x; see EXPERIMENTS.md on the gap)\n",
              base_med / informed_w_med);
  return 0;
}
