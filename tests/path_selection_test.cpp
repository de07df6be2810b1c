// Tests for latency-aware path selection: band sampling, the local-search
// low-RTT optimizer (which should exploit TIVs), anonymity-set estimation,
// and the §5.2.2 length recommendation.
#include <gtest/gtest.h>

#include "analysis/path_selection.h"
#include "analysis/tiv.h"
#include "geo/cities.h"
#include "simnet/latency_model.h"

namespace ting::analysis {
namespace {

struct World {
  std::vector<dir::Fingerprint> fps;
  meas::RttMatrix matrix;
  serve::MatrixSnapshot snapshot;  ///< what the analyses read

  explicit World(std::size_t n, std::uint64_t seed = 21) {
    simnet::LatencyConfig cfg;
    cfg.seed = seed;
    simnet::LatencyModel model(cfg);
    Rng rng(seed);
    std::vector<simnet::HostId> hosts;
    for (std::size_t i = 0; i < n; ++i) {
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
    snapshot = serve::MatrixSnapshot::build(matrix);
  }
};

TEST(BandSamplingTest, HitsRespectBandAndAreDistinct) {
  World w(40);
  Rng rng(3);
  BandQuery q;
  q.length = 4;
  q.rtt_lo_ms = 200;
  q.rtt_hi_ms = 300;
  q.want = 15;
  const auto hits = find_circuits_in_band(w.snapshot, q, rng);
  EXPECT_GT(hits.size(), 0u);
  std::set<std::vector<std::size_t>> uniq;
  for (const auto& h : hits) {
    EXPECT_GE(h.rtt_ms, 200.0);
    EXPECT_LE(h.rtt_ms, 300.0);
    EXPECT_EQ(h.path.size(), 4u);
    EXPECT_TRUE(uniq.insert(h.path).second);
  }
}

TEST(BandSamplingTest, ImpossibleBandReturnsEmpty) {
  World w(20);
  Rng rng(4);
  BandQuery q;
  q.length = 3;
  q.rtt_lo_ms = 0;
  q.rtt_hi_ms = 0.000001;  // nothing is this fast
  q.max_iterations = 2000;
  EXPECT_TRUE(find_circuits_in_band(w.snapshot, q, rng).empty());
}

TEST(OptimizerTest, BeatsRandomSampling) {
  World w(40);
  Rng rng(5);
  const CircuitSample best = optimize_low_rtt_circuit(w.snapshot, 4, rng);
  // Compare against the best of 2000 random circuits.
  Rng rng2(6);
  const auto random_samples = sample_circuits(w.snapshot, 4, 2000, rng2);
  double random_best = 1e18;
  for (const auto& s : random_samples)
    random_best = std::min(random_best, s.rtt_ms);
  EXPECT_LE(best.rtt_ms, random_best);
}

TEST(OptimizerTest, ResultIsLocalOptimum) {
  World w(25);
  Rng rng(7);
  const CircuitSample best =
      optimize_low_rtt_circuit(w.snapshot, 3, rng, /*restarts=*/4);
  // No single-node replacement improves it.
  const std::set<std::size_t> used(best.path.begin(), best.path.end());
  for (std::size_t pos = 0; pos < best.path.size(); ++pos) {
    for (std::size_t cand = 0; cand < w.snapshot.node_count(); ++cand) {
      if (used.contains(cand)) continue;
      std::vector<std::size_t> trial = best.path;
      trial[pos] = cand;
      EXPECT_GE(w.snapshot.path_rtt_ms(trial).value(), best.rtt_ms - 1e-9);
    }
  }
}

TEST(OptimizerTest, LongOptimizedCircuitCanBeatShortRandomOnes) {
  // §5.2's message: with RTT knowledge, longer circuits need not be slower
  // than typical short ones.
  World w(50);
  Rng rng(8);
  const CircuitSample five_hop =
      optimize_low_rtt_circuit(w.snapshot, 5, rng, 6);
  Rng rng2(9);
  const auto random3 = sample_circuits(w.snapshot, 3, 200, rng2);
  std::vector<double> rtts;
  for (const auto& s : random3) rtts.push_back(s.rtt_ms);
  EXPECT_LT(five_hop.rtt_ms, quantile(rtts, 0.5))
      << "an optimized 5-hop circuit should beat the median random 3-hop";
}

TEST(AnonymitySetTest, OptionsScaleWithLengthInModerateBand) {
  World w(50);
  Rng rng(10);
  const auto c3 =
      circuit_options_in_band(w.snapshot, 3, 200, 300, 4000, rng);
  const auto c5 =
      circuit_options_in_band(w.snapshot, 5, 200, 300, 4000, rng);
  ASSERT_TRUE(c3.has_value());
  ASSERT_TRUE(c5.has_value());
  EXPECT_GT(*c5, *c3 * 5);  // Fig 16's orders-of-magnitude growth
}

TEST(AnonymitySetTest, RecommendationPicksRicherLength) {
  World w(50);
  Rng rng(11);
  const auto rec =
      recommend_length_for_band(w.snapshot, 200, 300, 6, 4000, rng);
  ASSERT_TRUE(rec.has_value());
  EXPECT_GT(rec->length, 3u);  // longer lengths dominate this band
  EXPECT_GT(rec->options, 0.0);
}

TEST(AnonymitySetTest, EmptyBandYieldsNullopt) {
  World w(15);
  Rng rng(12);
  const auto rec =
      recommend_length_for_band(w.snapshot, 0.0, 0.0001, 5, 500, rng);
  EXPECT_FALSE(rec.has_value());
}

}  // namespace
}  // namespace ting::analysis
