// Figure 17: the "entropy" of circuit choice — for each circuit length and
// RTT bin, the median (over nodes) probability that a given node is on a
// circuit whose RTT lands in that bin.
//
// Paper shape: humps peaking at intermediate RTTs; very low values at the
// extremes, where few circuits exist and they reuse few nodes (an attacker
// knowing length + RTT can pare the candidate set).
#include "bench_common.h"

#include "analysis/circuits.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Figure 17", "median node-on-circuit probability per RTT bin");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const auto snapshot = serve::MatrixSnapshot::build(ds.matrix);
  const std::size_t kSamplesPerLength =
      static_cast<std::size_t>(scaled(10000, 2000));
  const double kBin = 50.0;
  const std::size_t kBins = 50;

  Rng rng(17);
  std::vector<CircuitRttHistogram> hists;
  for (std::size_t len = 3; len <= 10; ++len)
    hists.push_back(circuit_rtt_histogram(snapshot, len, kSamplesPerLength,
                                          kBin, kBins, rng));

  std::printf("# bin_rtt_s");
  for (std::size_t len = 3; len <= 10; ++len) std::printf("\tlen%zu", len);
  std::printf("\n");
  for (std::size_t b = 0; b < kBins; ++b) {
    std::printf("%.2f", (static_cast<double>(b) + 0.5) * kBin / 1000.0);
    for (const auto& h : hists)
      std::printf("\t%.5f", h.median_node_probability[b]);
    std::printf("\n");
  }

  // Each length's hump peaks at its own intermediate RTT, and the peak
  // location grows with length.
  std::printf("\n# peak bin per length (s)\n");
  double prev_peak = 0;
  bool monotone = true;
  for (const auto& h : hists) {
    std::size_t peak = 0;
    for (std::size_t b = 0; b < kBins; ++b)
      if (h.median_node_probability[b] >
          h.median_node_probability[peak])
        peak = b;
    const double peak_s = (static_cast<double>(peak) + 0.5) * kBin / 1000.0;
    std::printf("len%zu\t%.2f\n", h.length, peak_s);
    if (peak_s + 1e-9 < prev_peak) monotone = false;
    prev_peak = peak_s;
  }
  std::printf("# peaks shift right with length\t%s\n",
              monotone ? "yes (paper: yes)" : "no");
  return 0;
}
