// The missing-pair contract: every analysis entry point must analyse a
// partially-converged matrix (a daemon store mid-convergence) instead of
// aborting, and estimators must scale by what was actually sampled. Also
// pins the back-compat guarantee: on a complete matrix the try_ variants
// consume the same RNG stream as the historical code paths. The analyses
// read a snapshot by node index; the references here read the store by
// fingerprint.
#include <gtest/gtest.h>

#include <optional>

#include "analysis/circuits.h"
#include "analysis/deanon.h"
#include "analysis/path_selection.h"
#include "analysis/tiv.h"
#include "serve/detour_index.h"
#include "util/rng.h"

namespace ting::analysis {
namespace {

dir::Fingerprint fp_of(std::uint32_t i) {
  crypto::X25519Key k{};
  k[0] = static_cast<std::uint8_t>(i);
  k[1] = static_cast<std::uint8_t>(i >> 8);
  return dir::Fingerprint::of_identity(k);
}

/// Random world with a configurable fraction of pairs left unmeasured.
struct World {
  std::vector<dir::Fingerprint> fps;  ///< creation order
  meas::RttMatrix matrix;
  /// What the analyses read: relays with a measured pair, by fingerprint.
  serve::MatrixSnapshot snapshot;

  explicit World(std::size_t n, double missing_fraction,
                 std::uint64_t seed = 21) {
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
      fps.push_back(fp_of(static_cast<std::uint32_t>(i)));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.uniform(0.0, 1.0) < missing_fraction) continue;
        matrix.set(fps[i], fps[j], rng.uniform(20.0, 400.0));
      }
    snapshot = serve::MatrixSnapshot::build(matrix);
  }

  /// A path of snapshot indices summed hop by hop off the store, by
  /// fingerprint; nullopt at the first unmeasured hop.
  std::optional<double> store_path_rtt(
      const std::vector<std::size_t>& path) const {
    double total = 0;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const auto r = matrix.rtt(snapshot.node(path[i]),
                                snapshot.node(path[i + 1]));
      if (!r.has_value()) return std::nullopt;
      total += *r;
    }
    return total;
  }
};

/// The best TIV for nodes[i], nodes[j] by one O(n) scan of the store,
/// first wins on ties, or nullopt when no relay beats the direct path: the
/// per-pair reference tiv_summary's index must agree with.
std::optional<TivFinding> best_tiv(const meas::RttMatrix& matrix,
                                   const std::vector<dir::Fingerprint>& nodes,
                                   std::size_t i, std::size_t j) {
  const auto direct = matrix.rtt(nodes[i], nodes[j]);
  if (!direct.has_value()) return std::nullopt;
  std::optional<TivFinding> best;
  for (std::size_t r = 0; r < nodes.size(); ++r) {
    if (r == i || r == j) continue;
    const auto leg1 = matrix.rtt(nodes[i], nodes[r]);
    const auto leg2 = matrix.rtt(nodes[r], nodes[j]);
    if (!leg1.has_value() || !leg2.has_value()) continue;
    const double detour = *leg1 + *leg2;
    if (detour >= *direct) continue;
    if (!best.has_value() || detour < best->detour_ms)
      best = TivFinding{i, j, r, *direct, detour};
  }
  return best;
}

// ---------------------------------------------------------------- circuits

TEST(SparseCircuitsTest, TryCircuitRttReportsMissingHops) {
  // The snapshot's path sum is the store's, hop by hop, and absent exactly
  // when a hop is unmeasured.
  World w(10, 0.5);
  std::size_t complete = 0, incomplete = 0;
  for (std::size_t a = 0; a + 2 < w.snapshot.node_count(); ++a) {
    const std::vector<std::size_t> path{a, a + 1, a + 2};
    const auto rtt = w.snapshot.path_rtt_ms(path);
    const auto want = w.store_path_rtt(path);
    ASSERT_EQ(rtt.has_value(), want.has_value());
    if (rtt.has_value()) {
      EXPECT_EQ(*rtt, *want);
      ++complete;
    } else {
      ++incomplete;
    }
  }
  EXPECT_GT(incomplete, 0u);  // the world is actually sparse
}

TEST(SparseCircuitsTest, SampleCircuitsSkipsIncompleteDraws) {
  World w(15, 0.4);
  Rng rng(5);
  const auto samples = sample_circuits(w.snapshot, 3, 100, rng);
  EXPECT_FALSE(samples.empty());
  EXPECT_LE(samples.size(), 100u);
  for (const auto& s : samples) {
    const auto rtt = w.store_path_rtt(s.path);
    ASSERT_TRUE(rtt.has_value());  // only complete circuits come back
    EXPECT_DOUBLE_EQ(*rtt, s.rtt_ms);
  }
}

TEST(SparseCircuitsTest, CompleteMatrixKeepsHistoricalStream) {
  // On a complete matrix every draw is valid, so the skip-loop must
  // consume exactly one sample_indices draw per sample — the historical
  // stream, which deterministic figure pipelines depend on.
  World w(12, 0.0);
  Rng a(77), b(77);
  const auto samples = sample_circuits(w.snapshot, 4, 50, a);
  ASSERT_EQ(samples.size(), 50u);
  for (const auto& s : samples)
    EXPECT_EQ(s.path, b.sample_indices(w.snapshot.node_count(), 4));
}

TEST(SparseCircuitsTest, HistogramScalesByValidSamples) {
  World w(14, 0.3);
  Rng rng(6);
  const auto hist =
      circuit_rtt_histogram(w.snapshot, 3, 500, 50.0, 40, rng);
  double total = 0;
  for (double c : hist.scaled_counts) total += c;
  // Dividing by valid draws keeps the total estimate at C(n, 3) no matter
  // how sparse the matrix is (every valid draw lands in some bin).
  EXPECT_NEAR(total, n_choose_k(14, 3), 1e-6);
}

TEST(SparseCircuitsTest, HistogramOnUnmeasurableWorldIsEmptyNotFatal) {
  World w(8, 1.0);  // nothing measured at all
  Rng rng(7);
  const auto hist =
      circuit_rtt_histogram(w.snapshot, 3, 50, 50.0, 10, rng);
  for (double c : hist.scaled_counts) EXPECT_DOUBLE_EQ(c, 0.0);
}

// ---------------------------------------------------------- path selection

TEST(SparsePathSelectionTest, BandSearchSkipsIncompletePaths) {
  World w(15, 0.4);
  Rng rng(8);
  BandQuery q;
  q.length = 3;
  q.rtt_lo_ms = 0;
  q.rtt_hi_ms = 1e9;
  q.want = 20;
  const auto hits = find_circuits_in_band(w.snapshot, q, rng);
  EXPECT_FALSE(hits.empty());
  for (const auto& h : hits)
    EXPECT_TRUE(w.store_path_rtt(h.path).has_value());
}

TEST(SparsePathSelectionTest, OptimizerSurvivesSparseMatrix) {
  World w(15, 0.5);
  Rng rng(9);
  const CircuitSample best = optimize_low_rtt_circuit(w.snapshot, 3, rng);
  if (best.path.empty()) return;  // legitimately found nothing
  const auto rtt = w.store_path_rtt(best.path);
  ASSERT_TRUE(rtt.has_value());
  EXPECT_DOUBLE_EQ(*rtt, best.rtt_ms);
}

TEST(SparsePathSelectionTest, OptimizerOnEmptyMatrixReturnsEmptyPath) {
  World w(10, 1.0);
  Rng rng(10);
  const CircuitSample best = optimize_low_rtt_circuit(w.snapshot, 3, rng);
  EXPECT_TRUE(best.path.empty());
}

TEST(SparsePathSelectionTest, OptionsInBandDividesByValidSamples) {
  // Craft a world where every *measured* 2-hop circuit lands in the band:
  // the estimate must then be the full population, which only happens when
  // the divisor is the valid-sample count, not the request.
  World w(12, 0.5);
  Rng rng(11);
  const auto options =
      circuit_options_in_band(w.snapshot, 3, 0, 1e12, 400, rng);
  ASSERT_TRUE(options.has_value());
  EXPECT_NEAR(*options, n_choose_k(12, 3), 1e-6);
}

TEST(SparsePathSelectionTest, OptionsInBandNulloptWhenNothingMeasurable) {
  World w(10, 1.0);
  Rng rng(12);
  EXPECT_FALSE(
      circuit_options_in_band(w.snapshot, 3, 0, 1e12, 100, rng).has_value());
  EXPECT_FALSE(
      recommend_length_for_band(w.snapshot, 0, 1e12, 5, 100, rng)
          .has_value());
}

// --------------------------------------------------------------------- tiv

TEST(SparseTivTest, SummaryMatchesPerPairScan) {
  World w(16, 0.35);
  const auto summary = tiv_summary(w.snapshot);
  // The single-pass summary must agree with the per-pair reference scan,
  // in the same sorted-fingerprint order the legacy loop iterated.
  const auto nodes = w.matrix.nodes();
  ASSERT_EQ(nodes, w.snapshot.nodes());
  std::size_t measured = 0;
  std::vector<TivFinding> reference;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (w.matrix.contains(nodes[i], nodes[j])) ++measured;
      if (auto f = best_tiv(w.matrix, nodes, i, j); f.has_value())
        reference.push_back(*f);
    }
  EXPECT_EQ(summary.measured_pairs, measured);
  ASSERT_EQ(summary.findings.size(), reference.size());
  for (std::size_t k = 0; k < reference.size(); ++k) {
    EXPECT_EQ(summary.findings[k].a, reference[k].a);
    EXPECT_EQ(summary.findings[k].b, reference[k].b);
    EXPECT_EQ(summary.findings[k].via, reference[k].via);
    EXPECT_DOUBLE_EQ(summary.findings[k].direct_ms, reference[k].direct_ms);
    EXPECT_DOUBLE_EQ(summary.findings[k].detour_ms, reference[k].detour_ms);
  }
  EXPECT_DOUBLE_EQ(summary.fraction,
                   measured == 0 ? 0.0
                                 : static_cast<double>(reference.size()) /
                                       static_cast<double>(measured));
  // And the index's counters, which `ting coords` prints, count the same
  // findings.
  const auto detours = serve::DetourIndex::build(w.snapshot);
  EXPECT_EQ(detours.tiv_pairs(), summary.findings.size());
  EXPECT_DOUBLE_EQ(detours.tiv_fraction(), summary.fraction);
}

TEST(SparseTivTest, FractionDenominatorIsMeasuredPairs) {
  // 4 nodes, one measured pair with a two-leg detour beating it: fraction
  // must be 1/1, not 1/C(4,2).
  meas::RttMatrix m;
  const auto a = fp_of(1), b = fp_of(2), r = fp_of(3);
  m.set(a, b, 100.0);
  m.set(a, r, 30.0);
  m.set(r, b, 40.0);
  const auto snap = serve::MatrixSnapshot::build(m);
  const auto summary = tiv_summary(snap);
  EXPECT_EQ(summary.measured_pairs, 3u);  // (a,b), (a,r), (r,b)
  ASSERT_EQ(summary.findings.size(), 1u);
  EXPECT_EQ(summary.findings[0].via, *snap.index_of(r));
  EXPECT_DOUBLE_EQ(summary.fraction, 1.0 / 3.0);
}

// ------------------------------------------------------------------ deanon

TEST(SparseDeanonTest, TrySampleCircuitOnlyUsesMeasuredLegs) {
  World w(14, 0.4);
  const DeanonWorld dw(w.snapshot);
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    const auto c = try_sample_circuit(dw, rng, false);
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(dw.try_rtt(c->source, c->entry).has_value());
    EXPECT_TRUE(dw.try_rtt(c->entry, c->middle).has_value());
    EXPECT_TRUE(dw.try_rtt(c->middle, c->exit).has_value());
  }
}

TEST(SparseDeanonTest, TrySampleCircuitMatchesLegacyOnCompleteMatrix) {
  World w(10, 0.0);
  const DeanonWorld dw(w.snapshot);
  Rng a(14), b(14);
  for (int i = 0; i < 10; ++i) {
    const auto tried = try_sample_circuit(dw, a, false);
    const auto legacy = sample_circuit(dw, b, false);
    ASSERT_TRUE(tried.has_value());
    EXPECT_EQ(tried->source, legacy.source);
    EXPECT_EQ(tried->entry, legacy.entry);
    EXPECT_EQ(tried->middle, legacy.middle);
    EXPECT_EQ(tried->exit, legacy.exit);
    EXPECT_DOUBLE_EQ(tried->e2e_ms, legacy.e2e_ms);
  }
}

TEST(SparseDeanonTest, TrySampleCircuitNulloptOnUnmeasurableWorld) {
  World w(6, 1.0);
  const DeanonWorld dw(w.snapshot);
  Rng rng(15);
  EXPECT_FALSE(try_sample_circuit(dw, rng, false, 20).has_value());
  // Every relay present, but no three measured legs in a row: each of the
  // 20 draws has an unmeasured leg.
  meas::RttMatrix matching;
  for (std::uint32_t i = 0; i < 6; i += 2)
    matching.set(fp_of(i), fp_of(i + 1), 50.0);
  const auto snap = serve::MatrixSnapshot::build(matching);
  ASSERT_EQ(snap.node_count(), 6u);
  EXPECT_FALSE(try_sample_circuit(DeanonWorld(snap), rng, false, 20)
                   .has_value());
}

TEST(SparseDeanonTest, AllStrategiesRunToCompletionOnSparseMatrix) {
  World w(14, 0.35);
  const DeanonWorld dw(w.snapshot);
  for (const Strategy strategy :
       {Strategy::kRttUnaware, Strategy::kIgnoreTooLarge,
        Strategy::kInformed}) {
    Rng crng(42), prng(43);
    int successes = 0;
    for (int run = 0; run < 15; ++run) {
      const auto c = try_sample_circuit(dw, crng, false);
      ASSERT_TRUE(c.has_value());
      const DeanonResult r = deanonymize(dw, *c, strategy, prng);
      EXPECT_GE(r.probes, 0);
      if (r.success) {
        ++successes;
        EXPECT_TRUE(r.identified.contains(c->entry));
        EXPECT_TRUE(r.identified.contains(c->middle));
      }
    }
    // The oracle probe always separates the true pair eventually; what
    // sparsity may cost is pruning power, never correctness or termination.
    EXPECT_GT(successes, 0) << "strategy " << static_cast<int>(strategy);
  }
}

}  // namespace
}  // namespace ting::analysis
