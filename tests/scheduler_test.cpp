// Tests for the scan engine at K=1, the paper's one-pair-at-a-time scan:
// full coverage of the pair set, cache-driven skipping (§4.6), the
// max_age = 0 "remeasure all" boundary in both drivers, retry-then-report
// on persistent failures, and progress reporting.
#include <gtest/gtest.h>

#include "scenario/testbed.h"
#include "ting/scheduler.h"

namespace ting::meas {
namespace {

scenario::TestbedOptions calm(std::uint64_t seed) {
  scenario::TestbedOptions o;
  o.seed = seed;
  o.differential_fraction = 0;
  o.latency.jitter_mean_ms = 0.05;
  o.latency.jitter_spike_prob = 0;
  return o;
}

TEST(SchedulerTest, ScansAllPairsIntoCache) {
  scenario::Testbed tb = scenario::planetlab31(calm(301));
  TingConfig cfg;
  cfg.samples = 30;
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  ParallelScanner scanner({&measurer}, cache);

  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 6; ++i) nodes.push_back(tb.fp(i));

  std::size_t progress_calls = 0;
  const ScanReport report = scanner.scan(
      nodes, {},
      [&](std::size_t done, std::size_t total, const PairResult& r) {
        ++progress_calls;
        EXPECT_LE(done, total);
        EXPECT_TRUE(r.ok);
      });

  EXPECT_EQ(report.pairs_total, 15u);
  EXPECT_EQ(report.measured, 15u);
  EXPECT_EQ(report.from_cache, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(progress_calls, 15u);
  EXPECT_EQ(cache.size(), 15u);
  EXPECT_GT(report.virtual_time.sec(), 0.0);
  // Every pair present and plausible.
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto rtt = cache.rtt(nodes[i], nodes[j]);
      ASSERT_TRUE(rtt.has_value());
      EXPECT_GT(*rtt, 0.0);
      EXPECT_LT(*rtt, 1000.0);
    }
}

TEST(SchedulerTest, FreshCacheEntriesAreSkipped) {
  scenario::Testbed tb = scenario::planetlab31(calm(302));
  TingConfig cfg;
  cfg.samples = 20;
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  ParallelScanner scanner({&measurer}, cache);

  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 5; ++i) nodes.push_back(tb.fp(i));

  const ScanReport first = scanner.scan(nodes);
  EXPECT_EQ(first.measured, 10u);

  // Immediately rescan: everything is fresh.
  const ScanReport second = scanner.scan(nodes);
  EXPECT_EQ(second.measured, 0u);
  EXPECT_EQ(second.from_cache, 10u);

  // After the freshness window lapses, pairs are remeasured.
  tb.loop().run_until(tb.loop().now() + Duration::seconds(8 * 24 * 3600));
  const ScanReport third = scanner.scan(nodes);
  EXPECT_EQ(third.measured, 10u);

  // max_age = 0 forces remeasurement regardless of age.
  ScanOptions force;
  force.max_age = Duration::seconds(0);
  const ScanReport fourth = scanner.scan(nodes, force);
  EXPECT_EQ(fourth.measured, 10u);
}

// Every pair already sits in the cache stamped at the current virtual
// instant: max_age = 0 must still remeasure all of them (is_fresh is
// inclusive, so "age 0 <= max_age 0" would otherwise count as fresh), in
// the pool and in deterministic replay alike.
TEST(SchedulerTest, MaxAgeZeroRemeasuresEntriesStampedNow) {
  for (const bool deterministic : {false, true}) {
    scenario::Testbed tb = scenario::planetlab31(calm(305));
    TingConfig cfg;
    cfg.samples = 10;
    TingMeasurer measurer(tb.ting(), cfg);
    RttMatrix cache;
    ParallelScanner scanner(
        {ScanWorld{.measurers = {&measurer},
                   .reseed = [&tb](std::uint64_t s) {
                     tb.reseed_stochastics(s);
                   }}},
        cache);

    std::vector<dir::Fingerprint> nodes;
    for (std::size_t i = 0; i < 5; ++i) nodes.push_back(tb.fp(i));
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        cache.set(nodes[i], nodes[j], 1.0, tb.loop().now(), 1);

    ScanOptions options;
    options.deterministic = deterministic;
    const ScanReport cached = scanner.scan(nodes, options);
    EXPECT_EQ(cached.from_cache, 10u) << "deterministic=" << deterministic;
    EXPECT_EQ(cached.measured, 0u);

    options.max_age = Duration::seconds(0);
    const ScanReport forced = scanner.scan(nodes, options);
    EXPECT_EQ(forced.measured, 10u) << "deterministic=" << deterministic;
    EXPECT_EQ(forced.from_cache, 0u);
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        EXPECT_NE(*cache.rtt(nodes[i], nodes[j]), 1.0);
  }
}

TEST(SchedulerTest, PersistentFailuresAreRetriedAndReported) {
  scenario::Testbed tb = scenario::planetlab31(calm(303));
  TingConfig cfg;
  cfg.samples = 20;
  TingMeasurer measurer(tb.ting(), cfg);
  RttMatrix cache;
  ParallelScanner scanner({&measurer}, cache);

  // A node that is not in the consensus: every circuit through it fails.
  crypto::X25519Key ghost_key;
  ghost_key.fill(0xdd);
  const dir::Fingerprint ghost = dir::Fingerprint::of_identity(ghost_key);

  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), ghost};
  ScanOptions options;
  options.attempts_per_pair = 2;
  const ScanReport report = scanner.scan(nodes, options);

  EXPECT_EQ(report.pairs_total, 3u);
  EXPECT_EQ(report.measured, 1u);  // (0,1) works
  EXPECT_EQ(report.failed, 2u);    // both ghost pairs fail
  ASSERT_EQ(report.failed_pairs.size(), 2u);
  for (const auto& f : report.failed_pairs) {
    EXPECT_TRUE(f.a == ghost || f.b == ghost);
    // Never-in-consensus relays are permanent failures: classified as such
    // and failed on the first attempt without consuming retries.
    EXPECT_EQ(f.error_class, ErrorClass::kPermanent);
  }
  EXPECT_EQ(report.failed_permanent, 2u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_TRUE(cache.contains(tb.fp(0), tb.fp(1)));
  EXPECT_FALSE(cache.contains(tb.fp(0), ghost));
}

TEST(SchedulerTest, OrderSeedChangesVisitOrderNotResults) {
  scenario::Testbed tb = scenario::planetlab31(calm(304));
  TingConfig cfg;
  cfg.samples = 20;
  TingMeasurer measurer(tb.ting(), cfg);

  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 5; ++i) nodes.push_back(tb.fp(i));

  RttMatrix cache_a, cache_b;
  ParallelScanner scanner_a({&measurer}, cache_a);
  ScanOptions oa;
  oa.order_seed = 1;
  scanner_a.scan(nodes, oa);

  ParallelScanner scanner_b({&measurer}, cache_b);
  ScanOptions ob;
  ob.order_seed = 99;
  scanner_b.scan(nodes, ob);

  // Same pairs measured; values close (jitter differs between scans).
  ASSERT_EQ(cache_a.size(), cache_b.size());
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const double a = *cache_a.rtt(nodes[i], nodes[j]);
      const double b = *cache_b.rtt(nodes[i], nodes[j]);
      EXPECT_NEAR(a, b, std::max(3.0, 0.1 * a));
    }
}

}  // namespace
}  // namespace ting::meas
