// Figure 13: fraction of nodes implicitly ruled out (never probed, excluded
// purely by the too-large-RTT rules) as a function of the circuit's
// end-to-end RTT.
//
// Paper shape: strong anti-correlation — low-RTT circuits let the attacker
// discard most of the network up front; the highest-RTT circuits gain
// nothing.
#include "bench_common.h"

#include "analysis/deanon.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Figure 13", "implicitly ruled-out fraction vs end-to-end RTT");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const auto snapshot = serve::MatrixSnapshot::build(ds.matrix);
  const DeanonWorld world(snapshot);

  const int kRuns = scaled(1000, 150);
  Rng circuit_rng(42), probe_rng(43);
  std::vector<double> e2e, ruled_out;
  std::printf("# e2e_rtt_ms\tfraction_ruled_out\n");
  for (int i = 0; i < kRuns; ++i) {
    const CircuitInstance c = sample_circuit(world, circuit_rng, false);
    const DeanonResult r =
        deanonymize(world, c, Strategy::kIgnoreTooLarge, probe_rng);
    e2e.push_back(c.e2e_ms);
    ruled_out.push_back(r.fraction_ruled_out_initially);
    if (i < 250) std::printf("%.1f\t%.3f\n", c.e2e_ms, r.fraction_ruled_out_initially);
  }

  std::printf("\n# pearson(e2e, ruled_out)\t%.3f (paper: strong negative)\n",
              pearson(e2e, ruled_out));
  // Bucketised medians for the trend line.
  std::printf("# e2e bucket -> median ruled-out fraction\n");
  for (double lo = 0; lo < 800; lo += 100) {
    std::vector<double> bucket;
    for (std::size_t k = 0; k < e2e.size(); ++k)
      if (e2e[k] >= lo && e2e[k] < lo + 100) bucket.push_back(ruled_out[k]);
    if (bucket.size() < 3) continue;
    std::printf("%4.0f-%4.0f ms\t%.3f (n=%zu)\n", lo, lo + 100,
                quantile(bucket, 0.5), bucket.size());
  }
  return 0;
}
