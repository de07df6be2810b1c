// Ablation (§2): direct measurement (Ting) vs a Vivaldi coordinate
// embedding fit on the same data — the quantitative version of the paper's
// argument that "estimation systems offer considerably greater coverage
// than Ting ... but suffer from the fact that Internet latencies are
// inherently difficult to estimate accurately, e.g., due to triangle
// inequality violations", and §5.2.1's "Distances do not violate the
// triangle inequality, while Tor often does."
#include "bench_common.h"

#include "analysis/coordinates.h"
#include "analysis/tiv.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Ablation", "Ting direct measurement vs Vivaldi coordinates");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const auto snapshot = serve::MatrixSnapshot::build(ds.matrix);

  for (const double fraction : {1.0, 0.3, 0.1}) {
    VivaldiSystem vivaldi;
    Rng rng(2);
    vivaldi.fit(snapshot, rng, fraction);
    const auto errs = vivaldi.relative_errors(snapshot);
    std::printf("\n# vivaldi fit on %.0f%% of pairs: relative error "
                "median %.1f%%, p90 %.1f%%\n",
                100 * fraction, 100 * quantile(errs, 0.5),
                100 * quantile(errs, 0.9));
  }
  std::printf("# ting direct measurement: error vs its own dataset is zero "
              "by construction;\n# vs ground truth it is the Fig 3 "
              "distribution (~80%% of pairs within 10%%).\n");

  // The TIV blind spot: every detour the measured matrix exposes is
  // invisible to the embedding.
  const auto true_tivs = tiv_summary(snapshot).findings;
  VivaldiSystem vivaldi;
  Rng rng(3);
  vivaldi.fit(snapshot, rng, 1.0);
  meas::RttMatrix estimated;
  for (std::size_t i = 0; i < snapshot.node_count(); ++i)
    for (std::size_t j = i + 1; j < snapshot.node_count(); ++j)
      estimated.set(snapshot.node(i), snapshot.node(j),
                    vivaldi.estimate_ms(i, j));
  const auto embedded_tivs =
      tiv_summary(serve::MatrixSnapshot::build(estimated)).findings;
  std::size_t significant = 0;
  for (const auto& t : embedded_tivs)
    if (t.savings() > 1e-6) ++significant;
  std::printf("\n# TIVs in the measured matrix\t%zu\n", true_tivs.size());
  std::printf("# TIVs expressible by the embedding\t%zu (a metric space "
              "cannot violate the triangle inequality)\n", significant);
  std::printf("\n# conclusion: coordinates trade accuracy for coverage and "
              "are structurally\n# blind to the TIV detours that §5.2 "
              "exploits — direct measurement is necessary.\n");
  return 0;
}
