// find_fast_circuits: demonstrate §5.2 — use an all-pairs RTT dataset to
// find triangle-inequality-violation detours and long-but-fast circuits.
//
// Usage: find_fast_circuits [n_nodes]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "analysis/circuits.h"
#include "analysis/tiv.h"
#include "geo/cities.h"
#include "simnet/latency_model.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace ting;
  using namespace ting::analysis;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 50;

  simnet::LatencyModel model{simnet::LatencyConfig{}};
  Rng rng(7);
  std::vector<dir::Fingerprint> fps;
  std::vector<simnet::HostId> hosts;
  meas::RttMatrix matrix;
  for (std::uint32_t i = 0; i < n; ++i) {
    const geo::City& c = geo::sample_city_tor_weighted(rng);
    hosts.push_back(
        model.add_host(geo::jitter_location({c.lat, c.lon}, 15.0, rng)));
    crypto::X25519Key k{};
    k[0] = static_cast<std::uint8_t>(i);
    k[1] = static_cast<std::uint8_t>(i >> 8);
    fps.push_back(dir::Fingerprint::of_identity(k));
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      matrix.set(fps[i], fps[j],
                 model.rtt(hosts[i], hosts[j], simnet::Protocol::kTor).ms());

  // Relays are numbered by their index in the snapshot (fingerprint order).
  const auto snapshot = serve::MatrixSnapshot::build(matrix);

  // ---- Triangle inequality violations (§5.2.1) ---------------------------
  const auto tivs = tiv_summary(snapshot).findings;
  const double pairs = static_cast<double>(n * (n - 1) / 2);
  std::printf("TIVs: %zu of %.0f pairs (%.0f%%) have a faster relay detour "
              "(paper: 69%%)\n",
              tivs.size(), pairs, 100.0 * static_cast<double>(tivs.size()) / pairs);
  std::vector<double> savings;
  for (const auto& t : tivs) savings.push_back(t.savings());
  if (!savings.empty()) {
    std::printf("  median saving %.1f%% (paper: 7.5%%); top decile >= %.1f%% "
                "(paper: 28%%)\n",
                100 * quantile(savings, 0.5), 100 * quantile(savings, 0.9));
    const auto best =
        *std::max_element(tivs.begin(), tivs.end(),
                          [](const TivFinding& a, const TivFinding& b) {
                            return a.savings() < b.savings();
                          });
    std::printf("  best detour: %.1fms direct -> %.1fms via $%s (%.0f%% faster)\n",
                best.direct_ms, best.detour_ms,
                snapshot.node(best.via).short_name().c_str(),
                100 * best.savings());
  }

  // ---- Longer circuits need not be slower (§5.2.2) -----------------------
  std::printf("\ncircuits with end-to-end RTT in 200-300ms, by length "
              "(scaled to C(%zu, l)):\n", n);
  Rng crng(11);
  for (std::size_t len = 3; len <= 10; ++len) {
    const auto hist =
        circuit_rtt_histogram(snapshot, len, 10000, 50.0, 60, crng);
    double in_band = 0;
    for (std::size_t b = 4; b < 6; ++b) in_band += hist.scaled_counts[b];
    std::printf("  %2zu hops: %12.0f circuits\n", len, in_band);
  }
  std::printf("\nlonger circuits offer orders of magnitude more options at "
              "the same RTT,\nso length can buy anonymity without latency "
              "(Fig 16).\n");
  return 0;
}
