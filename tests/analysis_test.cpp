// Tests for the analysis applications: deanonymization strategies and their
// ordering (§5.1), TIV detection (§5.2.1), long-circuit statistics (§5.2.2),
// and coverage classification (§5.3).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "analysis/circuits.h"
#include "analysis/coverage.h"
#include "analysis/deanon.h"
#include "analysis/tiv.h"
#include "geo/cities.h"
#include "scenario/timeline.h"
#include "simnet/latency_model.h"
#include "util/stats.h"

namespace ting::analysis {
namespace {

dir::Fingerprint fp_of(std::uint32_t i) {
  crypto::X25519Key k{};
  k[0] = static_cast<std::uint8_t>(i);
  k[1] = static_cast<std::uint8_t>(i >> 8);
  return dir::Fingerprint::of_identity(k);
}

/// A synthetic all-pairs matrix from the simulator's latency model: hosts
/// placed like Tor relays (US/EU-heavy, global tail — the Fig 11 RTT
/// spread), with per-pair path inflation, i.e. what Ting would measure.
/// The analyses read its snapshot, which numbers the relays in fingerprint
/// order, not in `fps` (creation) order.
struct SyntheticWorld {
  std::vector<dir::Fingerprint> fps;
  meas::RttMatrix matrix;
  serve::MatrixSnapshot snapshot;

  explicit SyntheticWorld(std::size_t n, std::uint64_t seed = 9) {
    simnet::LatencyConfig cfg;
    cfg.seed = seed;
    simnet::LatencyModel model(cfg);
    Rng rng(seed);
    std::vector<simnet::HostId> hosts;
    for (std::size_t i = 0; i < n; ++i) {
      const geo::City& c = geo::sample_city_tor_weighted(rng);
      hosts.push_back(
          model.add_host(geo::jitter_location({c.lat, c.lon}, 15.0, rng)));
      fps.push_back(fp_of(static_cast<std::uint32_t>(i)));
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        matrix.set(fps[i], fps[j],
                   model.rtt(hosts[i], hosts[j], simnet::Protocol::kTor).ms());
    snapshot = serve::MatrixSnapshot::build(matrix);
  }

  /// Per-relay values given in creation order, moved to snapshot order.
  std::vector<double> by_index(const std::vector<double>& per_fp) const {
    std::vector<double> out(per_fp.size());
    for (std::size_t i = 0; i < per_fp.size(); ++i)
      out.at(*snapshot.index_of(fps[i])) = per_fp[i];
    return out;
  }
};

// ------------------------------------------------------------------ deanon

struct StrategyStats {
  double median_fraction;
  std::vector<double> fractions;
  std::vector<double> ruled_out;
  std::vector<double> e2e;
};

StrategyStats run_strategy(const SyntheticWorld& world, Strategy strategy,
                           int runs, bool weighted = false,
                           std::vector<double> weights = {}) {
  const DeanonWorld dw(world.snapshot, std::move(weights));
  Rng circuit_rng(42);  // same circuits across strategies
  Rng probe_rng(43);
  StrategyStats out{0, {}, {}, {}};
  for (int i = 0; i < runs; ++i) {
    const CircuitInstance c = sample_circuit(dw, circuit_rng, weighted);
    const DeanonResult r = deanonymize(dw, c, strategy, probe_rng);
    EXPECT_TRUE(r.success);
    out.fractions.push_back(r.fraction_probed);
    out.ruled_out.push_back(r.fraction_ruled_out_initially);
    out.e2e.push_back(c.e2e_ms);
  }
  out.median_fraction = quantile(out.fractions, 0.5);
  return out;
}

TEST(DeanonTest, UnawareBaselineMedianNearPaperValue) {
  SyntheticWorld world(50);
  const StrategyStats s = run_strategy(world, Strategy::kRttUnaware, 200);
  // Random search for 2 of 49 candidates: median of the max of two uniform
  // order statistics ≈ 0.71; the paper reports 0.72.
  EXPECT_GT(s.median_fraction, 0.6);
  EXPECT_LT(s.median_fraction, 0.85);
}

TEST(DeanonTest, StrategyOrderingMatchesPaper) {
  SyntheticWorld world(50);
  const int kRuns = 150;
  const StrategyStats unaware =
      run_strategy(world, Strategy::kRttUnaware, kRuns);
  const StrategyStats ignore =
      run_strategy(world, Strategy::kIgnoreTooLarge, kRuns);
  const StrategyStats informed =
      run_strategy(world, Strategy::kInformed, kRuns);
  // Fig 12's ordering: unaware > ignore-too-large > informed.
  EXPECT_LT(ignore.median_fraction, unaware.median_fraction);
  EXPECT_LT(informed.median_fraction, ignore.median_fraction);
  // And the headline ~1.5x speedup for the informed strategy (we observe
  // ~1.2-1.3x on the synthetic matrix).
  EXPECT_GT(unaware.median_fraction / informed.median_fraction, 1.1);
}

TEST(DeanonTest, RuledOutFractionAntiCorrelatesWithE2eRtt) {
  // Fig 13: lower end-to-end RTT lets the attacker rule out more nodes.
  SyntheticWorld world(40);
  const StrategyStats s =
      run_strategy(world, Strategy::kIgnoreTooLarge, 150);
  EXPECT_LT(pearson(s.e2e, s.ruled_out), -0.4);
  EXPECT_GT(max_of(s.ruled_out), 0.2);  // some circuits prune substantially
}

TEST(DeanonTest, InformedNeverProbesRuledOutNodes) {
  SyntheticWorld world(30);
  const DeanonWorld dw(world.snapshot);
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const CircuitInstance c = sample_circuit(dw, rng, false);
    const DeanonResult r = deanonymize(dw, c, Strategy::kInformed, rng);
    ASSERT_TRUE(r.success);
    EXPECT_LE(r.probes, static_cast<int>(r.candidates));
  }
}

TEST(DeanonTest, WeightedInformedBeatsWeightOrderedBaseline) {
  SyntheticWorld world(50);
  Rng wrng(77);
  std::vector<double> weights;
  for (std::size_t i = 0; i < 50; ++i)
    weights.push_back(20.0 + wrng.lognormal(5.0, 1.2));
  const int kRuns = 120;
  // Each relay keeps its weight under the snapshot's numbering.
  weights = world.by_index(weights);
  const StrategyStats baseline = run_strategy(
      world, Strategy::kWeightOrdered, kRuns, /*weighted=*/true, weights);
  const StrategyStats informed = run_strategy(
      world, Strategy::kInformed, kRuns, /*weighted=*/true, weights);
  // §5.1.2 footnote: the Ting-based approach speeds up deanonymization
  // relative to probing in decreasing-weight order (the paper reports a
  // median 2x; our synthetic bandwidth distribution gives a smaller but
  // consistent win — see EXPERIMENTS.md).
  EXPECT_GT(baseline.median_fraction / informed.median_fraction, 1.1);
}

TEST(DeanonTest, SampleCircuitRespectsDistinctness) {
  SyntheticWorld world(10);
  const DeanonWorld dw(world.snapshot);
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const CircuitInstance c = sample_circuit(dw, rng, false);
    std::set<std::size_t> uniq{c.source, c.entry, c.middle, c.exit};
    EXPECT_EQ(uniq.size(), 4u);
    EXPECT_GT(c.e2e_ms, c.exit_to_dst_ms);
  }
}

// --------------------------------------------------------------------- TIV

TEST(TivTest, DetectsHandCraftedViolation) {
  meas::RttMatrix m;
  const auto a = fp_of(1), b = fp_of(2), r = fp_of(3);
  m.set(a, b, 100.0);
  m.set(a, r, 30.0);
  m.set(r, b, 40.0);
  const auto snap = serve::MatrixSnapshot::build(m);
  const auto summary = tiv_summary(snap);
  ASSERT_EQ(summary.findings.size(), 1u);
  const TivFinding& tiv = summary.findings[0];
  EXPECT_EQ((std::set<std::size_t>{tiv.a, tiv.b}),
            (std::set<std::size_t>{*snap.index_of(a), *snap.index_of(b)}));
  EXPECT_EQ(tiv.via, *snap.index_of(r));
  EXPECT_DOUBLE_EQ(tiv.detour_ms, 70.0);
  EXPECT_NEAR(tiv.savings(), 0.3, 1e-12);
}

TEST(TivTest, NoViolationInMetricSpace) {
  // Pure great-circle latencies obey the triangle inequality, so a matrix
  // with inflation == 1 everywhere has no TIVs.
  simnet::LatencyConfig cfg;
  cfg.inflation_min = cfg.inflation_max = 1.0;
  cfg.min_rtt_ms = 0.0001;
  simnet::LatencyModel model(cfg);
  Rng rng(5);
  std::vector<simnet::HostId> hosts;
  std::vector<dir::Fingerprint> fps;
  meas::RttMatrix m;
  for (int i = 0; i < 15; ++i) {
    hosts.push_back(
        model.add_host({rng.uniform(-60.0, 60.0), rng.uniform(-180.0, 180.0)}));
    fps.push_back(fp_of(static_cast<std::uint32_t>(100 + i)));
  }
  for (std::size_t i = 0; i < fps.size(); ++i)
    for (std::size_t j = i + 1; j < fps.size(); ++j)
      m.set(fps[i], fps[j],
            model.rtt(hosts[i], hosts[j], simnet::Protocol::kTcp).ms());
  EXPECT_DOUBLE_EQ(tiv_summary(serve::MatrixSnapshot::build(m)).fraction,
                   0.0);
}

TEST(TivTest, InflatedPathsProduceManyViolations) {
  SyntheticWorld world(30);
  const TivSummary summary = tiv_summary(world.snapshot);
  const double frac = summary.fraction;
  // The paper finds 69% of pairs TIV-capable; the synthetic world with
  // independent inflation should be in the same regime.
  EXPECT_GT(frac, 0.3);
  const auto& tivs = summary.findings;
  EXPECT_NEAR(static_cast<double>(tivs.size()) / (30.0 * 29 / 2), frac, 1e-9);
  for (const auto& t : tivs) {
    EXPECT_LT(t.detour_ms, t.direct_ms);
    EXPECT_GT(t.savings(), 0.0);
    EXPECT_LT(t.savings(), 1.0);
  }
}

TEST(TivTest, BestDetourIsActuallyBest) {
  SyntheticWorld world(20);
  const auto& nodes = world.snapshot.nodes();
  const auto summary = tiv_summary(world.snapshot);
  // Findings are ordered by (a, b), so pair (0, 1)'s comes first if any.
  if (summary.findings.empty() || summary.findings[0].a != 0 ||
      summary.findings[0].b != 1)
    GTEST_SKIP() << "pair has no TIV under this seed";
  const TivFinding& tiv = summary.findings[0];
  for (const auto& r : nodes) {
    if (r == nodes[0] || r == nodes[1]) continue;
    const double detour = *world.matrix.rtt(nodes[0], r) +
                          *world.matrix.rtt(r, nodes[1]);
    EXPECT_GE(detour, tiv.detour_ms - 1e-12);
  }
}

// ---------------------------------------------------------------- circuits

TEST(CircuitsTest, RttSumsHops) {
  meas::RttMatrix m;
  const auto a = fp_of(1), b = fp_of(2), c = fp_of(3);
  m.set(a, b, 10.0);
  m.set(b, c, 20.0);
  m.set(a, c, 100.0);
  const auto snap = serve::MatrixSnapshot::build(m);
  const std::size_t ia = *snap.index_of(a), ib = *snap.index_of(b),
                    ic = *snap.index_of(c);
  EXPECT_DOUBLE_EQ(*snap.path_rtt_ms({ia, ib, ic}), 30.0);
  EXPECT_DOUBLE_EQ(*snap.path_rtt_ms({ia, ic, ib}), 120.0);
}

TEST(CircuitsTest, NChooseK) {
  EXPECT_DOUBLE_EQ(n_choose_k(50, 3), 19600.0);
  EXPECT_DOUBLE_EQ(n_choose_k(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(n_choose_k(4, 5), 0.0);
  EXPECT_NEAR(n_choose_k(50, 10), 1.0272278170e10, 1e3);
}

TEST(CircuitsTest, SamplesAreSimplePaths) {
  SyntheticWorld world(20);
  Rng rng(11);
  const auto samples =
      sample_circuits(world.snapshot, 6, 200, rng);
  EXPECT_EQ(samples.size(), 200u);
  for (const auto& s : samples) {
    EXPECT_EQ(s.path.size(), 6u);
    std::set<std::size_t> uniq(s.path.begin(), s.path.end());
    EXPECT_EQ(uniq.size(), 6u);
    EXPECT_GT(s.rtt_ms, 0.0);
  }
}

TEST(CircuitsTest, LongerCircuitsHaveHigherMeanRtt) {
  SyntheticWorld world(30);
  Rng rng(13);
  double prev_mean = 0;
  for (std::size_t len : {3u, 5u, 8u, 10u}) {
    const auto samples =
        sample_circuits(world.snapshot, len, 400, rng);
    std::vector<double> rtts;
    for (const auto& s : samples) rtts.push_back(s.rtt_ms);
    const double mean = mean_of(rtts);
    EXPECT_GT(mean, prev_mean) << "len " << len;
    prev_mean = mean;
  }
}

TEST(CircuitsTest, HistogramScalesToPopulation) {
  SyntheticWorld world(25);
  Rng rng(17);
  const auto hist =
      circuit_rtt_histogram(world.snapshot, 4, 1000, 50.0, 60, rng);
  double total = 0;
  for (double c : hist.scaled_counts) total += c;
  EXPECT_NEAR(total, n_choose_k(25, 4), 1.0);
  // Node-probability medians live in [0, 1] and are nonzero somewhere.
  double max_prob = 0;
  for (double p : hist.median_node_probability) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    max_prob = std::max(max_prob, p);
  }
  EXPECT_GT(max_prob, 0.0);
}

TEST(CircuitsTest, MoreOptionsAtModerateRttForLongerCircuits) {
  // The Fig 16 phenomenon: in a moderate RTT band, longer circuits offer
  // orders of magnitude more options than 3-hop circuits.
  SyntheticWorld world(50);
  Rng rng(19);
  const auto h3 =
      circuit_rtt_histogram(world.snapshot, 3, 5000, 50.0, 60, rng);
  const auto h5 =
      circuit_rtt_histogram(world.snapshot, 5, 5000, 50.0, 60, rng);
  // Find a bin (200-400ms) where 3-hop has appreciable mass.
  double c3 = 0, c5 = 0;
  for (std::size_t b = 4; b < 8; ++b) {
    c3 += h3.scaled_counts[b];
    c5 += h5.scaled_counts[b];
  }
  EXPECT_GT(c3, 0.0);
  EXPECT_GT(c5, c3 * 10);
}

// ---------------------------------------------------------------- coverage

TEST(CoverageTest, ClassifierRecognisesPatterns) {
  EXPECT_TRUE(is_residential_rdns("c-73-120-42-7.hsd1.ga.comcast-sim.net"));
  EXPECT_TRUE(is_residential_rdns("p5483A1B2.dip0.t-ipconnect-sim.de"));
  EXPECT_FALSE(is_residential_rdns("server-42-7.linode-sim.com"));
  EXPECT_TRUE(is_datacenter_rdns("server-42-7.linode-sim.com"));
  EXPECT_TRUE(is_datacenter_rdns("vm-3.amazonaws-sim.com"));
  EXPECT_FALSE(is_datacenter_rdns("c-73-120-42-7.hsd1.ga.comcast-sim.net"));
  EXPECT_FALSE(is_residential_rdns(""));
  EXPECT_FALSE(is_datacenter_rdns(""));
  // Plain names with no embedded numbers are not residential.
  EXPECT_FALSE(is_residential_rdns("mail.example.org"));
}

TEST(CoverageTest, StatsMatchSectionFiveThree) {
  scenario::TimelineOptions o;
  o.days = 1;
  o.initial_relays = 3000;
  const auto tl = scenario::make_timeline(o);
  const CoverageStats stats = coverage_stats(tl.final_consensus);
  EXPECT_EQ(stats.total_relays, 3000u);
  // ~83% named; ~61% of named residential; tens of countries; /24s at the
  // paper's ~0.85 ratio.
  EXPECT_NEAR(static_cast<double>(stats.with_rdns) / 3000.0, 0.83, 0.05);
  EXPECT_NEAR(stats.residential_fraction_of_named(), 0.61, 0.08);
  EXPECT_GT(stats.datacenter_named, 200u);
  EXPECT_GT(stats.countries, 30u);
  EXPECT_NEAR(static_cast<double>(stats.unique_slash24) / 3000.0, 0.85, 0.08);
  EXPECT_LE(stats.unique_slash16, stats.unique_slash24);
}

}  // namespace
}  // namespace ting::analysis
