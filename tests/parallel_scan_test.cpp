// Tests for the scan engine's pool: estimate parity between K>1 and the
// one-pair-at-a-time K=1 scan, virtual-time speedup from keeping K pairs
// in flight, the per-relay admission cap, retry-with-backoff on injected
// failures, pipelined builds, and cache reuse.
#include <gtest/gtest.h>

#include <memory>

#include "scenario/testbed.h"
#include "ting/half_circuit_cache.h"
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

/// Calm world with near-deterministic relay queueing, so min-of-N converges
/// well inside 1 ms and cross-engine estimate parity is testable tightly.
scenario::TestbedOptions stable(std::uint64_t seed) {
  scenario::TestbedOptions o = calm(seed);
  o.forward_queue_scale = 0.05;
  return o;
}

/// A pool of K measurers (one per measurement host) over the testbed.
struct Pool {
  std::vector<std::unique_ptr<TingMeasurer>> owned;
  std::vector<TingMeasurer*> measurers;

  Pool(scenario::Testbed& tb, std::size_t k, const TingConfig& cfg) {
    for (meas::MeasurementHost* host : tb.measurement_pool(k)) {
      owned.push_back(std::make_unique<TingMeasurer>(*host, cfg));
      measurers.push_back(owned.back().get());
    }
  }
};

TEST(ParallelScanTest, MatchesSequentialPairForPair) {
  scenario::Testbed tb = scenario::planetlab31(stable(901));
  TingConfig cfg;
  cfg.samples = 30;
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 10; ++i) nodes.push_back(tb.fp(i));

  TingMeasurer sequential_measurer(tb.ting(), cfg);
  RttMatrix seq_cache;
  ParallelScanner sequential({&sequential_measurer}, seq_cache);
  const ScanReport seq = sequential.scan(nodes);
  ASSERT_EQ(seq.measured, 45u);

  Pool pool(tb, 4, cfg);
  RttMatrix par_cache;
  ParallelScanner parallel(pool.measurers, par_cache);
  std::size_t progress_calls = 0;
  const ScanReport par = parallel.scan(
      nodes, {},
      [&](std::size_t done, std::size_t total, const PairResult& r) {
        ++progress_calls;
        EXPECT_LE(done, total);
        EXPECT_TRUE(r.ok);
      });

  EXPECT_EQ(par.pairs_total, 45u);
  EXPECT_EQ(par.measured, 45u);
  EXPECT_EQ(par.failed, 0u);
  EXPECT_EQ(progress_calls, 45u);
  EXPECT_GT(par.max_in_flight, 1u);
  EXPECT_GT(par.time_sampling.sec(), 0.0);

  // Pair-for-pair parity with the K=1 scan (same world, same relays; only
  // sampling jitter differs).
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const auto a = seq_cache.rtt(nodes[i], nodes[j]);
      const auto b = par_cache.rtt(nodes[i], nodes[j]);
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      EXPECT_NEAR(*a, *b, 1.0) << "pair " << i << "," << j;
    }
}

TEST(ParallelScanTest, ThirtyNodeScanAtK8IsAtLeastFourTimesFaster) {
  scenario::Testbed tb = scenario::planetlab31(stable(902));
  TingConfig cfg;
  cfg.samples = 20;
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 30; ++i) nodes.push_back(tb.fp(i));

  TingMeasurer sequential_measurer(tb.ting(), cfg);
  RttMatrix seq_cache;
  ParallelScanner sequential({&sequential_measurer}, seq_cache);
  const ScanReport seq = sequential.scan(nodes);
  ASSERT_EQ(seq.measured, 435u);

  Pool pool(tb, 8, cfg);
  RttMatrix par_cache;
  ParallelScanner parallel(pool.measurers, par_cache);
  const ScanReport par = parallel.scan(nodes);

  ASSERT_EQ(par.measured, 435u);
  EXPECT_EQ(par.failed, 0u);
  EXPECT_EQ(par.max_in_flight, 8u);
  EXPECT_EQ(par.max_per_relay_in_flight, 1u);
  // The acceptance bar: >= 4x virtual-time speedup at K=8 ...
  EXPECT_LE(par.virtual_time.sec() * 4.0, seq.virtual_time.sec())
      << "parallel " << par.virtual_time.sec() << "s vs sequential "
      << seq.virtual_time.sec() << "s";
  // ... with every pair's estimate within 1 ms of the K=1 scan's.
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      EXPECT_NEAR(*seq_cache.rtt(nodes[i], nodes[j]),
                  *par_cache.rtt(nodes[i], nodes[j]), 1.0)
          << "pair " << i << "," << j;
}

TEST(ParallelScanTest, PerRelayCircuitCapIsNeverExceeded) {
  scenario::Testbed tb = scenario::planetlab31(calm(903));
  TingConfig cfg;
  cfg.samples = 15;
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 8; ++i) nodes.push_back(tb.fp(i));

  Pool pool(tb, 6, cfg);
  {
    RttMatrix cache;
    ParallelScanner scanner(pool.measurers, cache);
    const ScanReport report = scanner.scan(nodes);
    EXPECT_EQ(report.measured, 28u);
    // cap 1 (default): a relay is never probed by two circuits at once,
    // and the engine still runs pairs concurrently (8 nodes admit 4).
    EXPECT_EQ(report.max_per_relay_in_flight, 1u);
    EXPECT_GT(report.max_in_flight, 1u);
    EXPECT_LE(report.max_in_flight, pool.measurers.size());
  }
  {
    RttMatrix cache;
    ParallelScanner scanner(pool.measurers, cache);
    ScanOptions options;
    options.per_relay_cap = 2;
    options.max_age = Duration::seconds(0);  // force remeasurement
    const ScanReport report = scanner.scan(nodes, options);
    EXPECT_EQ(report.measured, 28u);
    EXPECT_LE(report.max_per_relay_in_flight, 2u);
  }
}

TEST(ParallelScanTest, InjectedFailuresAreRetriedWithBackoff) {
  scenario::Testbed tb = scenario::planetlab31(calm(904));
  TingConfig cfg;
  cfg.samples = 10;
  cfg.sample_timeout = Duration::seconds(2);
  cfg.build_timeout = Duration::seconds(20);
  cfg.max_build_attempts = 1;  // isolate the scan engine's retry logic
  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), tb.fp(2), tb.fp(3)};

  // Crash relay 0 now; revive it before the engine's first backoff retry
  // fires. Every pair touching relay 0 fails its first attempt (deadline),
  // then succeeds on retry.
  tb.net().set_host_down(tb.host_of(tb.fp(0)));
  tb.loop().schedule(Duration::seconds(90), [&]() {
    tb.net().set_host_down(tb.host_of(tb.fp(0)), false);
  });

  Pool pool(tb, 3, cfg);
  RttMatrix cache;
  ParallelScanner scanner(pool.measurers, cache);
  ScanOptions options;
  options.attempts_per_pair = 3;
  options.retry_backoff_base = Duration::seconds(60);
  const ScanReport report = scanner.scan(nodes, options);

  EXPECT_EQ(report.pairs_total, 6u);
  EXPECT_EQ(report.measured, 6u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_GE(report.retries, 3u);  // the three pairs touching relay 0
  ASSERT_EQ(report.retry_histogram.size(), 3u);
  EXPECT_EQ(report.retry_histogram[0], 3u);  // pairs untouched by the crash
  EXPECT_GE(report.retry_histogram[1] + report.retry_histogram[2], 3u);
  for (std::size_t i = 1; i < nodes.size(); ++i)
    EXPECT_TRUE(cache.contains(tb.fp(0), nodes[i]));
}

TEST(ParallelScanTest, PersistentFailuresSurfaceInFailedPairs) {
  scenario::Testbed tb = scenario::planetlab31(calm(905));
  TingConfig cfg;
  cfg.samples = 10;

  // A node absent from the consensus: every circuit through it fails.
  crypto::X25519Key ghost_key;
  ghost_key.fill(0xdd);
  const dir::Fingerprint ghost = dir::Fingerprint::of_identity(ghost_key);
  std::vector<dir::Fingerprint> nodes{tb.fp(0), tb.fp(1), ghost};

  Pool pool(tb, 2, cfg);
  RttMatrix cache;
  ParallelScanner scanner(pool.measurers, cache);
  ScanOptions options;
  options.attempts_per_pair = 2;
  options.retry_backoff_base = Duration::seconds(5);
  const ScanReport report = scanner.scan(nodes, options);

  EXPECT_EQ(report.measured, 1u);  // (0, 1) works
  EXPECT_EQ(report.failed, 2u);
  ASSERT_EQ(report.failed_pairs.size(), 2u);
  for (const auto& f : report.failed_pairs) {
    EXPECT_TRUE(f.a == ghost || f.b == ghost);
    EXPECT_EQ(f.error_class, ErrorClass::kPermanent);
  }
  EXPECT_EQ(report.failed_permanent, 2u);
  // Permanent failures consume exactly one attempt: no retries were spent
  // on the ghost pairs.
  EXPECT_EQ(report.retries, 0u);
  EXPECT_TRUE(cache.contains(tb.fp(0), tb.fp(1)));
}

TEST(ParallelScanTest, ManySynchronousFailuresDoNotRecursePump) {
  // Regression: measure_async fails synchronously for relays missing from
  // the consensus. The dispatch callback used to resolve such failures
  // inline, re-entering pump() from inside pump()'s dispatch loop — one
  // stack frame per failing task. With a scan made almost entirely of
  // sync-failing pairs, that was deep recursion; resolution must instead
  // ride a deferred event.
  scenario::Testbed tb = scenario::planetlab31(calm(907));
  TingConfig cfg;
  cfg.samples = 5;

  std::vector<dir::Fingerprint> nodes{tb.fp(0)};
  for (std::uint8_t i = 0; i < 40; ++i) {
    crypto::X25519Key key;
    key.fill(static_cast<std::uint8_t>(0x30 + i));
    nodes.push_back(dir::Fingerprint::of_identity(key));
  }

  Pool pool(tb, 4, cfg);
  RttMatrix cache;
  ParallelScanner scanner(pool.measurers, cache);
  ScanOptions options;
  options.attempts_per_pair = 1;
  const ScanReport report = scanner.scan(nodes, options);

  const std::size_t pairs = nodes.size() * (nodes.size() - 1) / 2;
  EXPECT_EQ(report.pairs_total, pairs);
  EXPECT_EQ(report.measured, 0u);  // every pair touches a ghost
  EXPECT_EQ(report.failed, pairs);
  EXPECT_EQ(report.failed_permanent, pairs);
  EXPECT_EQ(report.retries, 0u);
}

TEST(ParallelScanTest, OptimizedScanMatchesColdScanClosely) {
  // The acceptance regression: a scan with every measurement-plane
  // optimization on (half-circuit cache, adaptive early-stop, pipelined
  // builds) produces per-pair estimates within 1 ms of a fully cold scan,
  // while building far fewer circuits and taking fewer samples.
  TingConfig cold_cfg;
  cold_cfg.samples = 40;
  TingConfig opt_cfg = cold_cfg;
  opt_cfg.adaptive_samples = true;
  // Aggressive stop rule so a 40-sample budget can early-stop at all (the
  // conservative library defaults only bite near the full 200 budget).
  opt_cfg.min_samples = 10;
  opt_cfg.plateau_samples = 10;
  opt_cfg.epsilon_ms = 0.05;
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};

  scenario::Testbed cold_world = scenario::planetlab31(stable(911));
  std::vector<dir::Fingerprint> cold_nodes;
  for (std::size_t i : idx) cold_nodes.push_back(cold_world.fp(i));
  Pool cold_pool(cold_world, 4, cold_cfg);
  RttMatrix cold_cache;
  ParallelScanner cold_scanner(cold_pool.measurers, cold_cache);
  ScanOptions cold_options;
  cold_options.pipeline_builds = false;
  const ScanReport cold = cold_scanner.scan(cold_nodes, cold_options);
  ASSERT_EQ(cold.measured, 45u);
  EXPECT_EQ(cold.circuits_built, 3u * 45u);
  EXPECT_EQ(cold.half_cache_hits, 0u);
  EXPECT_EQ(cold.samples_saved, 0u);

  scenario::Testbed opt_world = scenario::planetlab31(stable(911));
  std::vector<dir::Fingerprint> opt_nodes;
  for (std::size_t i : idx) opt_nodes.push_back(opt_world.fp(i));
  Pool opt_pool(opt_world, 4, opt_cfg);
  RttMatrix opt_cache;
  ParallelScanner opt_scanner(opt_pool.measurers, opt_cache);
  ScanOptions opt_options;
  HalfCircuitCache halves;
  opt_options.half_cache = &halves;
  const ScanReport opt = opt_scanner.scan(opt_nodes, opt_options);
  ASSERT_EQ(opt.measured, 45u);

  // Each of K=4 hosts memoizes its own halves, so hits are plentiful even
  // though the first pair per (host, relay) still measures.
  EXPECT_GT(opt.half_cache_hits, 0u);
  EXPECT_LT(opt.circuits_built, cold.circuits_built);
  EXPECT_GT(opt.samples_saved, 0u);
  EXPECT_FALSE(halves.empty());

  for (std::size_t i = 0; i < cold_nodes.size(); ++i)
    for (std::size_t j = i + 1; j < cold_nodes.size(); ++j)
      EXPECT_NEAR(*cold_cache.rtt(cold_nodes[i], cold_nodes[j]),
                  *opt_cache.rtt(opt_nodes[i], opt_nodes[j]), 1.0)
          << "pair " << i << "," << j;
}

TEST(ParallelScanTest, PipelinedBuildsReduceSequentialScanTime) {
  // A K=1 pool with pipelining prebuilds the next pair's C_xy while the
  // current pair samples, so the one-at-a-time scan's virtual time drops by
  // roughly one build's worth of EXTENDCIRCUIT round trips per pair.
  TingConfig cfg;
  cfg.samples = 20;
  std::vector<std::size_t> idx{0, 1, 2, 3, 4, 5, 6, 7};

  const auto run = [&](bool pipeline) {
    scenario::Testbed tb = scenario::planetlab31(stable(912));
    std::vector<dir::Fingerprint> nodes;
    for (std::size_t i : idx) nodes.push_back(tb.fp(i));
    TingMeasurer m(tb.ting(), cfg);
    RttMatrix cache;
    ParallelScanner scanner({&m}, cache);
    ScanOptions options;
    options.pipeline_builds = pipeline;
    const ScanReport r = scanner.scan(nodes, options);
    EXPECT_EQ(r.measured, 28u);
    EXPECT_EQ(r.failed, 0u);
    // Pipelining hides build latency but never skips builds.
    EXPECT_EQ(r.circuits_built, 3u * 28u);
    return r.virtual_time.sec();
  };

  const double plain = run(false);
  const double pipelined = run(true);
  EXPECT_LT(pipelined, plain)
      << "pipelined " << pipelined << "s vs plain " << plain << "s";
}

TEST(ParallelScanTest, FreshCacheEntriesAreSkipped) {
  scenario::Testbed tb = scenario::planetlab31(calm(906));
  TingConfig cfg;
  cfg.samples = 15;
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < 5; ++i) nodes.push_back(tb.fp(i));

  Pool pool(tb, 4, cfg);
  RttMatrix cache;
  ParallelScanner scanner(pool.measurers, cache);
  const ScanReport first = scanner.scan(nodes);
  EXPECT_EQ(first.measured, 10u);

  const ScanReport second = scanner.scan(nodes);
  EXPECT_EQ(second.measured, 0u);
  EXPECT_EQ(second.from_cache, 10u);
  EXPECT_EQ(second.max_in_flight, 0u);
}

}  // namespace
}  // namespace ting::meas
