// Tests for HalfCircuitCache (memoized R_Cx/R_Cy entries: freshness TTL,
// churn invalidation, freshest-wins merging, CSV persistence) and for the
// measurer behaviors the cache composes with: memoized half probes,
// adaptive sample early-stop, and estimate_with_prefix's clamping when raw
// sample counts differ across probes.
#include <gtest/gtest.h>

#include "crypto/x25519.h"
#include "scenario/testbed.h"
#include "ting/half_circuit_cache.h"
#include "ting/measurer.h"
#include "util/assert.h"

namespace ting::meas {
namespace {

dir::Fingerprint fake_fp(std::uint8_t b) {
  crypto::X25519Key k;
  k.fill(b);
  return dir::Fingerprint::of_identity(k);
}

TEST(HalfCircuitCacheTest, StoreLookupAndMiss) {
  HalfCircuitCache c;
  const auto w = fake_fp(1), x = fake_fp(2), y = fake_fp(3);
  c.store(w, x, 12.5, TimePoint::from_ns(1000), 200);

  const auto* e = c.lookup(w, x);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rtt_ms, 12.5);
  EXPECT_EQ(e->measured_at.ns(), 1000);
  EXPECT_EQ(e->samples, 200);

  EXPECT_EQ(c.lookup(w, y), nullptr);   // different relay
  EXPECT_EQ(c.lookup(x, w), nullptr);   // keys are (host, relay), not symmetric
  EXPECT_EQ(c.size(), 1u);
}

TEST(HalfCircuitCacheTest, ApparatusCannotBeItsOwnTarget) {
  HalfCircuitCache c;
  EXPECT_THROW(c.store(fake_fp(1), fake_fp(1), 1.0, TimePoint{}, 10),
               CheckError);
}

TEST(HalfCircuitCacheTest, FreshnessMirrorsMatrixTtl) {
  HalfCircuitCache c;
  const auto w = fake_fp(1), x = fake_fp(2);
  const TimePoint at = TimePoint{} + Duration::seconds(100);
  c.store(w, x, 9.0, at, 50);

  // Inside the TTL: fresh. Exactly at the boundary: still fresh (matches
  // RttMatrix::is_fresh's strict > comparison). Past it: stale but still
  // present for lookup.
  EXPECT_NE(c.fresh(w, x, at + Duration::seconds(3600)), nullptr);
  EXPECT_NE(c.fresh(w, x, at + c.max_age()), nullptr);
  EXPECT_EQ(c.fresh(w, x, at + c.max_age() + Duration::millis(1)), nullptr);
  EXPECT_NE(c.lookup(w, x), nullptr);
}

TEST(HalfCircuitCacheTest, ChurnInvalidationDropsRelayUnderEveryApparatus) {
  HalfCircuitCache c;
  const auto w1 = fake_fp(1), w2 = fake_fp(2);
  const auto churned = fake_fp(3), stable = fake_fp(4);
  c.store(w1, churned, 1.0, TimePoint{}, 10);
  c.store(w2, churned, 2.0, TimePoint{}, 10);
  c.store(w1, stable, 3.0, TimePoint{}, 10);

  EXPECT_EQ(c.erase_relay(churned), 2u);
  EXPECT_EQ(c.lookup(w1, churned), nullptr);
  EXPECT_EQ(c.lookup(w2, churned), nullptr);
  EXPECT_NE(c.lookup(w1, stable), nullptr);
  EXPECT_EQ(c.erase_relay(churned), 0u);
}

TEST(HalfCircuitCacheTest, MergeKeepsFreshestEntry) {
  const auto w = fake_fp(1), x = fake_fp(2), y = fake_fp(3);
  HalfCircuitCache a, b;
  a.store(w, x, 10.0, TimePoint::from_ns(100), 10);
  b.store(w, x, 20.0, TimePoint::from_ns(200), 20);  // newer: wins
  b.store(w, y, 30.0, TimePoint::from_ns(50), 30);   // only in b: adopted

  a.merge_freshest(b);
  EXPECT_EQ(a.lookup(w, x)->rtt_ms, 20.0);
  EXPECT_EQ(a.lookup(w, y)->rtt_ms, 30.0);

  // Ties keep the existing entry (deterministic merges regardless of order).
  HalfCircuitCache tie;
  tie.store(w, x, 99.0, TimePoint::from_ns(200), 5);
  a.merge_freshest(tie);
  EXPECT_EQ(a.lookup(w, x)->rtt_ms, 20.0);
}

TEST(HalfCircuitCacheTest, CsvRoundTrips) {
  HalfCircuitCache c;
  c.store(fake_fp(1), fake_fp(2), 12.25, TimePoint::from_ns(777), 200);
  c.store(fake_fp(1), fake_fp(3), 0.5, TimePoint{}, 15);

  const HalfCircuitCache back = HalfCircuitCache::from_csv(c.to_csv());
  EXPECT_EQ(back.size(), 2u);
  const auto* e = back.lookup(fake_fp(1), fake_fp(2));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rtt_ms, 12.25);
  EXPECT_EQ(e->measured_at.ns(), 777);
  EXPECT_EQ(e->samples, 200);
}

TEST(HalfCircuitCacheTest, MalformedCsvRowsAreRejected) {
  const std::string header = "host_fp,relay_fp,rtt_ms,measured_at_ns,samples\n";
  const std::string a = fake_fp(1).hex(), b = fake_fp(2).hex();
  EXPECT_THROW(HalfCircuitCache::from_csv(header + "not,enough,cols\n"),
               CheckError);
  EXPECT_THROW(
      HalfCircuitCache::from_csv(header + a + "," + b + ",oops,777,200\n"),
      CheckError);
  EXPECT_THROW(
      HalfCircuitCache::from_csv(header + a + "," + b + ",12.5x,777,200\n"),
      CheckError);
  EXPECT_THROW(
      HalfCircuitCache::from_csv(header + a + "," + b + ",12.5,777,200junk\n"),
      CheckError);
  // A headerless file must not load minus its first row.
  try {
    HalfCircuitCache::from_csv(a + "," + b + ",12.5,777,200\n" + b + "," + a +
                               ",13.5,777,200\n");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

// ---- measurer integration ---------------------------------------------------

scenario::TestbedOptions calm(std::uint64_t seed) {
  scenario::TestbedOptions o;
  o.seed = seed;
  o.differential_fraction = 0;
  o.latency.jitter_mean_ms = 0.05;
  o.latency.jitter_spike_prob = 0;
  return o;
}

TEST(HalfCircuitCacheTest, MeasurerMemoizesHalfProbes) {
  scenario::Testbed tb = scenario::planetlab31(calm(831));
  TingConfig cfg;
  cfg.samples = 20;
  TingMeasurer m(tb.ting(), cfg);
  HalfCircuitCache cache;
  m.set_half_cache(&cache);

  const PairResult cold = m.measure_blocking(tb.fp(0), tb.fp(1));
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cx.memoized);
  EXPECT_FALSE(cold.cy.memoized);
  EXPECT_EQ(cold.circuits_built(), 3);
  EXPECT_EQ(cold.half_cache_hits(), 0);
  EXPECT_EQ(cache.size(), 2u);  // R_C0 and R_C1 stored

  // Second pair shares relay 0: its half probe is served from the cache and
  // skips a circuit entirely.
  const PairResult warm = m.measure_blocking(tb.fp(0), tb.fp(2));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cx.memoized);
  EXPECT_FALSE(warm.cy.memoized);
  EXPECT_EQ(warm.cx.min_rtt_ms, cold.cx.min_rtt_ms);
  EXPECT_EQ(warm.circuits_built(), 2);
  EXPECT_EQ(warm.half_cache_hits(), 1);
  EXPECT_EQ(cache.size(), 3u);

  // Fully warm: both halves memoized, one circuit built.
  const PairResult hot = m.measure_blocking(tb.fp(1), tb.fp(2));
  ASSERT_TRUE(hot.ok) << hot.error;
  EXPECT_EQ(hot.circuits_built(), 1);
  EXPECT_EQ(hot.half_cache_hits(), 2);
}

TEST(HalfCircuitCacheTest, MemoizedEstimateMatchesColdEstimate) {
  // Same pair measured cold in one world and with both halves memoized in a
  // world built from the same seed: Eq. (4)'s cancellation is unaffected by
  // where the half minima came from, so estimates agree to sampling noise.
  TingConfig cfg;
  cfg.samples = 30;
  scenario::TestbedOptions o = calm(832);
  o.forward_queue_scale = 0.05;

  scenario::Testbed cold_world = scenario::planetlab31(o);
  TingMeasurer cold_m(cold_world.ting(), cfg);
  const PairResult cold = cold_m.measure_blocking(cold_world.fp(2), cold_world.fp(3));
  ASSERT_TRUE(cold.ok) << cold.error;

  scenario::Testbed warm_world = scenario::planetlab31(o);
  TingMeasurer warm_m(warm_world.ting(), cfg);
  HalfCircuitCache cache;
  warm_m.set_half_cache(&cache);
  (void)warm_m.measure_blocking(warm_world.fp(2), warm_world.fp(3));
  const PairResult warm = warm_m.measure_blocking(warm_world.fp(2), warm_world.fp(3));
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.half_cache_hits(), 2);
  EXPECT_NEAR(warm.rtt_ms, cold.rtt_ms, 1.0);
}

TEST(HalfCircuitCacheTest, AdaptiveEarlyStopSavesSamplesWithoutBias) {
  scenario::Testbed tb = scenario::planetlab31(calm(833));
  TingConfig full;
  full.samples = 200;
  TingConfig adaptive = full;
  adaptive.adaptive_samples = true;
  // Aggressive stop rule: this test exercises the mechanism on a calm
  // world, not the conservative library defaults.
  adaptive.min_samples = 10;
  adaptive.plateau_samples = 10;
  adaptive.epsilon_ms = 0.05;

  TingMeasurer fm(tb.ting(), full);
  const PairResult f = fm.measure_blocking(tb.fp(4), tb.fp(5));
  ASSERT_TRUE(f.ok) << f.error;
  EXPECT_EQ(f.cxy.samples_taken, 200);
  EXPECT_EQ(f.samples_saved(), 0);

  TingMeasurer am(tb.ting(), adaptive);
  const PairResult a = am.measure_blocking(tb.fp(4), tb.fp(5));
  ASSERT_TRUE(a.ok) << a.error;
  // §4.4: the running minimum plateaus long before the 200-sample cap.
  EXPECT_LT(a.cxy.samples_taken, 200);
  EXPECT_GE(a.cxy.samples_taken, 10);  // min_samples floor
  EXPECT_EQ(a.samples_saved(),
            (200 - a.cxy.samples_taken) + (200 - a.cx.samples_taken) +
                (200 - a.cy.samples_taken));
  EXPECT_NEAR(a.rtt_ms, f.rtt_ms, 1.0);
}

TEST(HalfCircuitCacheTest, EstimateWithPrefixClampsToAvailableSamples) {
  scenario::Testbed tb = scenario::planetlab31(calm(834));
  TingConfig cfg;
  cfg.samples = 60;
  cfg.keep_raw_samples = true;
  cfg.adaptive_samples = true;  // probes may stop with < 60 raw samples
  cfg.min_samples = 10;
  cfg.plateau_samples = 10;
  cfg.epsilon_ms = 0.05;
  TingMeasurer m(tb.ting(), cfg);
  const PairResult r = m.measure_blocking(tb.fp(0), tb.fp(1));
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_LT(r.cxy.raw_samples_ms.size(), 60u);

  // Regression: k beyond an early-stopped probe's raw count used to read
  // past the end of raw_samples_ms; it must clamp instead. The full-prefix
  // estimate equals the reported estimate, and k=0 behaves like k=1.
  const double full = r.estimate_with_prefix(60);
  EXPECT_NEAR(full, r.rtt_ms, 1e-9);
  EXPECT_EQ(r.estimate_with_prefix(0), r.estimate_with_prefix(1));
  // Prefix estimates with any k are finite and sane.
  for (std::size_t k : {1u, 5u, 1000u})
    EXPECT_GT(r.estimate_with_prefix(k), -50.0);
}

TEST(HalfCircuitCacheTest, EstimateWithPrefixUsesCachedMinimumForMemoizedHalf) {
  scenario::Testbed tb = scenario::planetlab31(calm(835));
  TingConfig cfg;
  cfg.samples = 25;
  cfg.keep_raw_samples = true;
  TingMeasurer m(tb.ting(), cfg);
  HalfCircuitCache cache;
  m.set_half_cache(&cache);

  (void)m.measure_blocking(tb.fp(0), tb.fp(1));
  const PairResult warm = m.measure_blocking(tb.fp(0), tb.fp(2));
  ASSERT_TRUE(warm.ok) << warm.error;
  ASSERT_TRUE(warm.cx.memoized);
  ASSERT_TRUE(warm.cx.raw_samples_ms.empty());
  // A memoized half has no raw samples; the prefix estimate falls back to
  // its cached minimum instead of tripping the keep_raw_samples contract.
  const double est = warm.estimate_with_prefix(25);
  EXPECT_NEAR(est, warm.rtt_ms, 1e-9);
}

}  // namespace
}  // namespace ting::meas
