// Figure 16: number of circuits (scaled from a 10k sample to the full
// C(50, l) population) whose end-to-end RTT falls in each 50 ms bin, for
// circuit lengths 3–10.
//
// Paper shape: in the 200–300 ms band, 4-hop circuits offer ~an order of
// magnitude more options than 3-hop, and 10-hop four orders of magnitude
// more; no 3-hop circuit exceeds ~1 s while millions of 10-hop ones exceed
// 2 s.
#include "bench_common.h"

#include "analysis/circuits.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  using namespace ting::analysis;
  header("Figure 16", "circuits per RTT bin, lengths 3-10, scaled to C(50,l)");

  const FiftyNodeDataset ds = fifty_node_dataset();
  const auto snapshot = serve::MatrixSnapshot::build(ds.matrix);
  const std::size_t kSamplesPerLength =
      static_cast<std::size_t>(scaled(10000, 2000));
  const double kBin = 50.0;
  const std::size_t kBins = 50;  // 0..2.5 s

  Rng rng(16);
  std::vector<CircuitRttHistogram> hists;
  std::printf("# bin_rtt_s");
  for (std::size_t len = 3; len <= 10; ++len) std::printf("\tlen%zu", len);
  std::printf("\n");
  for (std::size_t len = 3; len <= 10; ++len)
    hists.push_back(circuit_rtt_histogram(snapshot, len, kSamplesPerLength,
                                          kBin, kBins, rng));
  for (std::size_t b = 0; b < kBins; ++b) {
    std::printf("%.2f", (static_cast<double>(b) + 0.5) * kBin / 1000.0);
    for (const auto& h : hists) std::printf("\t%.3g", h.scaled_counts[b]);
    std::printf("\n");
  }

  auto band_count = [&](const CircuitRttHistogram& h, double lo_ms,
                        double hi_ms) {
    double total = 0;
    for (std::size_t b = 0; b < kBins; ++b) {
      const double center = (static_cast<double>(b) + 0.5) * kBin;
      if (center >= lo_ms && center < hi_ms) total += h.scaled_counts[b];
    }
    return total;
  };
  const double c3 = band_count(hists[0], 200, 300);
  const double c4 = band_count(hists[1], 200, 300);
  const double c10 = band_count(hists[7], 200, 300);
  std::printf("\n# circuits in 200-300ms: 3-hop %.3g, 4-hop %.3g, 10-hop "
              "%.3g\n", c3, c4, c10);
  std::printf("# 4-hop vs 3-hop\t%.0fx (paper: ~10x)\n", c4 / c3);
  std::printf("# 10-hop vs 3-hop\t%.0fx (paper: ~4 orders of magnitude)\n",
              c10 / c3);
  return 0;
}
