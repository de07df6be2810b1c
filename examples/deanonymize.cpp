// deanonymize: demonstrate §5.1 — how an all-pairs RTT dataset speeds up
// circuit deanonymization. Builds a 50-node world, simulates victim
// circuits, and compares the probe budgets of the three attacker
// strategies.
//
// Usage: deanonymize [runs]
#include <cstdio>
#include <cstdlib>

#include "analysis/deanon.h"
#include "geo/cities.h"
#include "simnet/latency_model.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace ting;
  using namespace ting::analysis;
  const int runs = argc > 1 ? std::atoi(argv[1]) : 300;

  // A 50-node all-pairs matrix with Tor-like geography (what Ting would
  // produce; see examples/measure_testbed.cpp for the measured version).
  simnet::LatencyModel model{simnet::LatencyConfig{}};
  Rng rng(50);
  std::vector<dir::Fingerprint> fps;
  std::vector<simnet::HostId> hosts;
  meas::RttMatrix matrix;
  for (std::uint32_t i = 0; i < 50; ++i) {
    const geo::City& c = geo::sample_city_tor_weighted(rng);
    hosts.push_back(
        model.add_host(geo::jitter_location({c.lat, c.lon}, 15.0, rng)));
    crypto::X25519Key k{};
    k[0] = static_cast<std::uint8_t>(i);
    fps.push_back(dir::Fingerprint::of_identity(k));
  }
  for (std::size_t i = 0; i < fps.size(); ++i)
    for (std::size_t j = i + 1; j < fps.size(); ++j)
      matrix.set(fps[i], fps[j],
                 model.rtt(hosts[i], hosts[j], simnet::Protocol::kTor).ms());

  // The world numbers relays by their index in the snapshot, which sorts
  // them by fingerprint.
  const auto snapshot = serve::MatrixSnapshot::build(matrix);
  const DeanonWorld world(snapshot);

  struct Row {
    const char* name;
    Strategy strategy;
  };
  const Row rows[] = {
      {"RTT-unaware brute force", Strategy::kRttUnaware},
      {"ignore too-large RTTs", Strategy::kIgnoreTooLarge},
      {"+ informed target selection", Strategy::kInformed},
  };

  std::printf("deanonymizing %d victim circuits per strategy "
              "(50 nodes, attacker = destination)\n\n", runs);
  std::printf("%-30s %10s %10s %10s\n", "strategy", "median", "p25", "p75");
  double unaware_median = 0;
  for (const Row& row : rows) {
    Rng circuit_rng(42), probe_rng(43);  // identical circuits per strategy
    std::vector<double> fractions;
    for (int i = 0; i < runs; ++i) {
      const CircuitInstance c = sample_circuit(world, circuit_rng, false);
      const DeanonResult r = deanonymize(world, c, row.strategy, probe_rng);
      fractions.push_back(r.fraction_probed);
    }
    const Summary s = summarize(fractions);
    if (row.strategy == Strategy::kRttUnaware) unaware_median = s.median;
    std::printf("%-30s %9.1f%% %9.1f%% %9.1f%%\n", row.name, 100 * s.median,
                100 * s.p25, 100 * s.p75);
    if (row.strategy == Strategy::kInformed && s.median > 0)
      std::printf("\nmedian speedup over RTT-unaware: %.2fx (paper: 1.5x)\n",
                  unaware_median / s.median);
  }
  return 0;
}
