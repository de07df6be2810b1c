// measure_testbed: build an all-pairs RTT dataset over a testbed, persist
// it as CSV, and validate it against ground truth — the §4.2 workflow at
// example scale (12 relays so it finishes in a few seconds).
//
// Usage: measure_testbed [n_relays] [samples] [out.csv]
#include <cstdio>
#include <cstdlib>

#include "scenario/testbed.h"
#include "serve/snapshot.h"
#include "ting/measurer.h"
#include "ting/rtt_matrix.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace ting;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 12;
  const int samples = argc > 2 ? std::atoi(argv[2]) : 100;
  const char* out_path = argc > 3 ? argv[3] : "testbed_matrix.csv";
  if (n < 4 || n > 200 || samples < 1) {
    std::fprintf(stderr,
                 "usage: measure_testbed [n_relays 4-200] [samples] [out.csv]\n");
    return 2;
  }

  scenario::TestbedOptions options;
  options.seed = 99;
  scenario::Testbed world = scenario::live_tor(n, options);
  meas::TingConfig config;
  config.samples = samples;
  meas::TingMeasurer ting(world.ting(), config);

  meas::RttMatrix matrix;
  std::vector<double> measured, truth;
  std::printf("measuring %zu pairs at %d samples each...\n",
              n * (n - 1) / 2, samples);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const meas::PairResult r =
          ting.measure_blocking(world.fp(i), world.fp(j));
      if (!r.ok) {
        std::printf("  pair (%zu,%zu) failed: %s\n", i, j, r.error.c_str());
        continue;
      }
      matrix.set(world.fp(i), world.fp(j), r.rtt_ms,
                 world.loop().now(), samples);
      measured.push_back(r.rtt_ms);
      truth.push_back(world.true_rtt_ms(world.fp(i), world.fp(j)));
    }
  }

  matrix.save_csv(out_path);
  std::printf("saved %zu pair measurements to %s\n", matrix.size(), out_path);
  std::printf("spearman rank correlation vs ground truth: %.4f (paper: 0.997)\n",
              spearman(measured, truth));

  int within10 = 0;
  for (std::size_t k = 0; k < measured.size(); ++k)
    if (std::abs(measured[k] - truth[k]) / truth[k] <= 0.10) ++within10;
  std::printf("within 10%% of truth: %d/%zu pairs\n", within10,
              measured.size());

  // Demonstrate the cache round trip (§4.6: measure rarely, cache).
  const meas::RttMatrix reloaded = meas::RttMatrix::load_csv(out_path);
  std::printf("reloaded matrix: %zu pairs, mean RTT %.1f ms\n",
              reloaded.size(),
              serve::MatrixSnapshot::build(reloaded).mean_rtt());
  return 0;
}
