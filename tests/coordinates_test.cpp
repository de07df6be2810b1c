// Tests for the Vivaldi coordinate baseline: convergence on embeddable
// (metric) latencies, degradation on TIV-bearing matrices, the structural
// impossibility of embedding a TIV, sparse-observation fitting, and
// zero or negative RTTs in the observations.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/coordinates.h"
#include "analysis/tiv.h"
#include "geo/cities.h"
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

struct MatrixWorld {
  std::vector<dir::Fingerprint> fps;  ///< creation order
  meas::RttMatrix matrix;
  serve::MatrixSnapshot snapshot;  ///< what the fit reads: fingerprint order
};

/// `inflation_spread` = 0 gives a pure metric space (embeddable);
/// larger values create TIVs the embedding cannot express.
MatrixWorld make_world(std::size_t n, double inflation_spread,
                       std::uint64_t seed) {
  simnet::LatencyConfig cfg;
  cfg.seed = seed;
  cfg.inflation_min = 1.3;
  cfg.inflation_max = 1.3 + inflation_spread;
  simnet::LatencyModel model(cfg);
  Rng rng(seed);
  MatrixWorld w;
  std::vector<simnet::HostId> hosts;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::City& c = geo::sample_city_tor_weighted(rng);
    hosts.push_back(
        model.add_host(geo::jitter_location({c.lat, c.lon}, 15.0, rng)));
    w.fps.push_back(fp_of(static_cast<std::uint32_t>(i)));
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      w.matrix.set(w.fps[i], w.fps[j],
                   model.rtt(hosts[i], hosts[j], simnet::Protocol::kTor).ms());
  w.snapshot = serve::MatrixSnapshot::build(w.matrix);
  return w;
}

TEST(VivaldiTest, ConvergesOnMetricLatencies) {
  const MatrixWorld w = make_world(30, 0.0, 5);
  VivaldiSystem vivaldi;
  Rng rng(1);
  vivaldi.fit(w.snapshot, rng);
  const auto errs = vivaldi.relative_errors(w.snapshot);
  ASSERT_FALSE(errs.empty());
  // Scaled great-circle distances embed well in 5 dimensions.
  EXPECT_LT(quantile(errs, 0.5), 0.12);
}

TEST(VivaldiTest, WorseOnTivBearingMatrix) {
  const MatrixWorld metric = make_world(30, 0.0, 6);
  const MatrixWorld tiv = make_world(30, 0.5, 6);
  Rng rng(2);
  VivaldiSystem a, b;
  a.fit(metric.snapshot, rng);
  b.fit(tiv.snapshot, rng);
  const double metric_err = quantile(a.relative_errors(metric.snapshot), 0.5);
  const double tiv_err = quantile(b.relative_errors(tiv.snapshot), 0.5);
  EXPECT_GT(tiv_err, metric_err);
}

TEST(VivaldiTest, EmbeddingCannotExpressTivs) {
  // §5.2.1's structural point: coordinate estimates are Euclidean distances
  // and therefore satisfy the triangle inequality — every real TIV is
  // invisible to the embedding.
  const MatrixWorld w = make_world(25, 0.45, 7);
  const auto true_tivs = tiv_summary(w.snapshot).findings;
  ASSERT_GT(true_tivs.size(), 5u) << "world should contain TIVs";

  VivaldiSystem vivaldi;
  Rng rng(3);
  vivaldi.fit(w.snapshot, rng);
  meas::RttMatrix estimated;
  for (std::size_t i = 0; i < w.snapshot.node_count(); ++i)
    for (std::size_t j = i + 1; j < w.snapshot.node_count(); ++j)
      estimated.set(w.snapshot.node(i), w.snapshot.node(j),
                    vivaldi.estimate_ms(i, j));
  // Allow a microscopic tolerance for floating point.
  const auto embedded_tivs =
      tiv_summary(serve::MatrixSnapshot::build(estimated)).findings;
  std::size_t significant = 0;
  for (const auto& t : embedded_tivs)
    if (t.savings() > 1e-6) ++significant;
  EXPECT_EQ(significant, 0u);
}

TEST(VivaldiTest, SparseObservationsStillFitCoarsely) {
  const MatrixWorld w = make_world(40, 0.0, 8);
  VivaldiSystem vivaldi;
  Rng rng(4);
  vivaldi.fit(w.snapshot, rng, /*sample_fraction=*/0.3);
  const auto errs = vivaldi.relative_errors(w.snapshot);
  ASSERT_FALSE(errs.empty());
  EXPECT_LT(quantile(errs, 0.5), 0.30);  // coarser, but usable — §2's trade
}

TEST(VivaldiTest, EstimateRequiresFittedNodes) {
  const MatrixWorld w = make_world(6, 0.0, 9);
  VivaldiSystem vivaldi;
  Rng rng(5);
  vivaldi.fit(w.snapshot, rng);
  // Every snapshot node is fitted, and nothing past them.
  ASSERT_EQ(w.snapshot.node_count(), 6u);
  EXPECT_GT(vivaldi.estimate_ms(0, 5), 0.0);
  EXPECT_THROW(vivaldi.estimate_ms(0, 6), CheckError);
  EXPECT_GT(vivaldi.estimate_ms(0, 1), 0.0);
  // Errors are taken against a snapshot of the fitted nodes only.
  const MatrixWorld other = make_world(7, 0.0, 9);
  EXPECT_THROW(vivaldi.relative_errors(other.snapshot), CheckError);
}

TEST(VivaldiTest, ZeroAndNegativeRttsAreSkipped) {
  // Ting estimates may be zero or negative, and the update divides by the
  // observed RTT. Such a pair must be skipped like an unmeasured one,
  // before the sampling draw: the fit is then the fit without it.
  const MatrixWorld w = make_world(20, 0.0, 10);
  meas::RttMatrix bad = w.matrix;
  bad.set(w.fps[0], w.fps[1], 0.0);
  bad.set(w.fps[2], w.fps[3], -0.5);
  meas::RttMatrix without;
  for (std::size_t i = 0; i < w.fps.size(); ++i)
    for (std::size_t j = i + 1; j < w.fps.size(); ++j)
      if ((i != 0 || j != 1) && (i != 2 || j != 3))
        without.set(w.fps[i], w.fps[j], *w.matrix.rtt(w.fps[i], w.fps[j]));
  const auto bad_snapshot = serve::MatrixSnapshot::build(bad);
  const auto without_snapshot = serve::MatrixSnapshot::build(without);
  ASSERT_EQ(bad_snapshot.nodes(), without_snapshot.nodes());

  for (const double fraction : {1.0, 0.3}) {
    VivaldiSystem with_bad, clean;
    Rng rng_bad(11), rng_clean(11);
    with_bad.fit(bad_snapshot, rng_bad, fraction);
    clean.fit(without_snapshot, rng_clean, fraction);
    const auto errs = with_bad.relative_errors(bad_snapshot);
    ASSERT_FALSE(errs.empty());
    for (const double e : errs) EXPECT_TRUE(std::isfinite(e));
    EXPECT_EQ(errs, clean.relative_errors(without_snapshot));
  }
}

}  // namespace
}  // namespace ting::analysis
