// Tests for the scan engine over several worlds: the merged RttMatrix must
// be bit-identical (as CSV bytes) across world counts and against one
// hand-wired world driven in deterministic mode, the merged ScanReport
// counters must add up, and a world's exception must surface after every
// worker joins. Kept small (8 nodes, few samples) so the whole binary stays
// in the smoke label and runs under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "scenario/shard_world.h"
#include "ting/half_circuit_cache.h"
#include "ting/scheduler.h"

namespace ting::meas {
namespace {

scenario::ShardWorldOptions small_world(std::uint64_t seed) {
  scenario::ShardWorldOptions o;
  o.relays = 10;
  o.scan_nodes = 8;
  o.testbed.seed = seed;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 10;
  return o;
}

ScanOptions deterministic(std::uint64_t pair_seed) {
  ScanOptions so;
  so.deterministic = true;
  so.pair_seed = pair_seed;
  return so;
}

/// Every scan gets W fresh worlds over one shared topology, built the way
/// `ting scan --shards W` builds them.
class TestbedWorlds {
 public:
  explicit TestbedWorlds(const scenario::ShardWorldOptions& wo)
      : wo_(wo), topology_(scenario::shard_topology(wo)) {}

  std::vector<dir::Fingerprint> nodes() const {
    return scenario::shard_scan_nodes(wo_, topology_);
  }

  ScanReport scan_pairs(std::size_t shards,
                        const ParallelScanner::PairList& pairs, RttMatrix& m,
                        const ScanOptions& so,
                        const ScanProgress& progress = {}) const {
    const auto worlds = scenario::make_shard_worlds(wo_, topology_, shards);
    ParallelScanner scanner(scenario::scan_worlds(worlds), m);
    return scanner.scan_pairs(nodes(), pairs, so, progress);
  }

  ScanReport scan(std::size_t shards, RttMatrix& m, const ScanOptions& so,
                  const ScanProgress& progress = {}) const {
    const auto worlds = scenario::make_shard_worlds(wo_, topology_, shards);
    ParallelScanner scanner(scenario::scan_worlds(worlds), m);
    return scanner.scan(nodes(), so, progress);
  }

 private:
  scenario::ShardWorldOptions wo_;
  scenario::TopologyPtr topology_;
};

TEST(ShardedScanTest, BitIdenticalAcrossShardCounts) {
  const TestbedWorlds sharded(small_world(41));
  ASSERT_EQ(sharded.nodes().size(), 8u);

  std::string csv1, csv4;
  {
    RttMatrix m;
    const ScanReport r = sharded.scan(1, m, deterministic(7));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.measured, 28u);
    csv1 = m.to_csv();
  }
  {
    RttMatrix m;
    const ScanReport r = sharded.scan(4, m, deterministic(7));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.measured, 28u);
    // Four shards really do run at once.
    EXPECT_EQ(r.max_in_flight, 4u);
    EXPECT_EQ(r.max_per_relay_in_flight, 1u);
    csv4 = m.to_csv();
  }
  EXPECT_EQ(csv1, csv4);
}

TEST(ShardedScanTest, MatchesNonShardedDeterministicScanner) {
  const scenario::ShardWorldOptions wo = small_world(41);
  const TestbedWorlds sharded(wo);
  const std::vector<dir::Fingerprint> nodes = sharded.nodes();

  // The non-sharded path: one world built by live_tor, deterministic
  // per-pair reseeding wired up by hand.
  scenario::Testbed tb = scenario::live_tor(wo.relays, wo.testbed);
  TingMeasurer measurer(tb.ting(), wo.ting);
  RttMatrix plain;
  ParallelScanner scanner(
      {ScanWorld{.measurers = {&measurer},
                 .reseed = [&tb](std::uint64_t s) {
                   tb.reseed_stochastics(s);
                 }}},
      plain);
  const ScanReport r = scanner.scan(nodes, deterministic(7));
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.measured, 28u);

  RttMatrix merged;
  const ScanReport sr = sharded.scan(3, merged, deterministic(7));
  EXPECT_EQ(sr.failed, 0u);

  EXPECT_EQ(plain.to_csv(), merged.to_csv());
}

TEST(ShardedScanTest, MergedReportCountersAddUp) {
  const TestbedWorlds sharded(small_world(43));

  RttMatrix m;
  std::size_t progress_calls = 0;
  std::size_t last_done = 0;
  const ScanReport r = sharded.scan(
      3, m, deterministic(11),
      [&](std::size_t done, std::size_t total, const PairResult&) {
        ++progress_calls;
        EXPECT_LE(done, total);
        last_done = std::max(last_done, done);
      });

  EXPECT_EQ(r.pairs_total, 28u);
  EXPECT_EQ(r.measured + r.from_cache + r.failed, 28u);
  EXPECT_EQ(r.failed,
            r.failed_transient + r.failed_permanent + r.failed_churned);
  EXPECT_EQ(progress_calls, 28u);
  EXPECT_EQ(last_done, 28u);
  EXPECT_EQ(m.size(), r.measured);
  ASSERT_FALSE(r.retry_histogram.empty());
  std::size_t hist_sum = 0;
  for (const std::size_t h : r.retry_histogram) hist_sum += h;
  EXPECT_EQ(hist_sum, r.measured + r.failed);
  EXPECT_GT(r.virtual_time.sec(), 0.0);
}

TEST(ShardedScanTest, BitIdenticalAcrossShardCountsWithOptimizations) {
  // Half-circuit memoization + adaptive early-stop must not perturb the
  // deterministic guarantee: with per-half world reseeds, a memoized R_Cx
  // equals the value a fresh probe would measure, so the merged matrix (and
  // the merged half-circuit cache) stay bit-identical for any W.
  scenario::ShardWorldOptions wo = small_world(47);
  wo.ting.adaptive_samples = true;
  wo.ting.samples = 40;
  // Aggressive stop rule so the 40-sample budget early-stops (the
  // conservative defaults only bite near the full 200 budget).
  wo.ting.min_samples = 10;
  wo.ting.plateau_samples = 10;
  wo.ting.epsilon_ms = 0.05;
  const TestbedWorlds sharded(wo);

  std::string csv1, csv3, halves1, halves3;
  std::size_t built1 = 0, built3 = 0;
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ScanOptions so = deterministic(7);
    so.half_cache = &halves;
    const ScanReport r = sharded.scan(1, m, so);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.half_cache_hits, 0u);
    EXPECT_GT(r.samples_saved, 0u);
    // With one shard every relay's half is memoized after its first pair:
    // 8 half measurements + 28 C_xy builds, not 3 * 28.
    EXPECT_EQ(r.circuits_built, 28u + 8u);
    csv1 = m.to_csv();
    halves1 = halves.to_bin();
    built1 = r.circuits_built;
  }
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ScanOptions so = deterministic(7);
    so.half_cache = &halves;
    const ScanReport r = sharded.scan(3, m, so);
    EXPECT_EQ(r.failed, 0u);
    csv3 = m.to_csv();
    halves3 = halves.to_bin();
    built3 = r.circuits_built;
  }
  EXPECT_EQ(csv1, csv3);
  EXPECT_EQ(halves1, halves3);
  // Shards each warm a private cache copy, so more shards build more half
  // circuits — but deterministic values make the merged artifacts agree.
  EXPECT_GE(built3, built1);
}

TEST(ShardedScanTest, MergedCountersIncludeOptimizationStats) {
  scenario::ShardWorldOptions wo = small_world(48);
  wo.ting.adaptive_samples = true;
  wo.ting.samples = 40;
  wo.ting.min_samples = 10;
  wo.ting.plateau_samples = 10;
  wo.ting.epsilon_ms = 0.05;
  const TestbedWorlds sharded(wo);

  RttMatrix m;
  HalfCircuitCache halves;
  ScanOptions so = deterministic(9);
  so.half_cache = &halves;
  const ScanReport r = sharded.scan(2, m, so);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.measured, 28u);
  // Every measured pair builds at least C_xy; memoization keeps the total
  // well under the cold 3-per-pair.
  EXPECT_GE(r.circuits_built, 28u);
  EXPECT_LT(r.circuits_built, 3u * 28u);
  EXPECT_GT(r.half_cache_hits, 0u);
  EXPECT_GT(r.samples_saved, 0u);
  // The merged cache holds one entry per (apparatus, relay); shard worlds
  // share one topology and so one w fingerprint: one entry per relay.
  EXPECT_EQ(halves.size(), sharded.nodes().size());
}

TEST(ShardedScanTest, PairReseedIsCommutative) {
  const std::vector<dir::Fingerprint> nodes =
      TestbedWorlds(small_world(41)).nodes();
  EXPECT_EQ(pair_reseed(9, nodes[0], nodes[1]),
            pair_reseed(9, nodes[1], nodes[0]));
  EXPECT_NE(pair_reseed(9, nodes[0], nodes[1]),
            pair_reseed(9, nodes[0], nodes[2]));
  EXPECT_NE(pair_reseed(9, nodes[0], nodes[1]),
            pair_reseed(10, nodes[0], nodes[1]));
}

TEST(ShardedScanTest, ScanPairsSubsetMatchesFullScanEntries) {
  // The daemon feeds explicit worklists through scan_pairs(); a subset
  // scan must reproduce exactly the full scan's per-pair estimates (each
  // estimate is a pure function of the pair, never of the worklist).
  const TestbedWorlds sharded(small_world(41));
  const std::vector<dir::Fingerprint> nodes = sharded.nodes();

  RttMatrix full;
  sharded.scan(2, full, deterministic(7));

  const ParallelScanner::PairList subset = {{0, 1}, {2, 5}, {6, 7}, {3, 4}};
  RttMatrix m;
  const ScanReport r = sharded.scan_pairs(2, subset, m, deterministic(7));
  EXPECT_EQ(r.pairs_total, subset.size());
  EXPECT_EQ(r.measured, subset.size());
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(m.size(), subset.size());
  for (const auto& [i, j] : subset) {
    ASSERT_TRUE(m.rtt(nodes[i], nodes[j]).has_value());
    EXPECT_EQ(*m.rtt(nodes[i], nodes[j]), *full.rtt(nodes[i], nodes[j]));
  }
}

TEST(ShardedScanTest, RescanReplacesEveryCachedEntry) {
  // Every world starts from a copy of the caller's matrix. Only the pairs a
  // world was dealt may land back after join; otherwise one world's
  // untouched copy of a pair overwrites another world's fresh measurement.
  const TestbedWorlds sharded(small_world(41));
  const std::vector<dir::Fingerprint> nodes = sharded.nodes();
  constexpr double kSentinel = 9999;
  const auto sentinels = [&](const RttMatrix& m) {
    const std::vector<double> values = m.values();
    return std::count(values.begin(), values.end(), kSentinel);
  };

  RttMatrix clean;
  sharded.scan(2, clean, deterministic(7));

  for (const bool det : {true, false}) {
    SCOPED_TRACE(det ? "deterministic" : "pool");
    RttMatrix m;
    for (std::size_t i = 0; i < nodes.size(); ++i)
      for (std::size_t j = i + 1; j < nodes.size(); ++j)
        m.set(nodes[i], nodes[j], kSentinel);
    ASSERT_EQ(sentinels(m), 28);
    ScanOptions so = det ? deterministic(7) : ScanOptions{};
    so.max_age = Duration{};  // remeasure every cached pair
    const ScanReport r = sharded.scan(2, m, so);
    EXPECT_EQ(r.measured, 28u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(m.size(), 28u);
    EXPECT_EQ(sentinels(m), 0);
    if (det) {
      EXPECT_EQ(m.to_csv(), clean.to_csv());
    }
  }
}

TEST(ShardedScanTest, ShardExceptionIsRethrownAfterJoin) {
  // World 1's reseed hook throws on its first pair; world 0 scans its
  // slice to completion on its own thread, and the failure surfaces only
  // once both workers have joined.
  const scenario::ShardWorldOptions wo = small_world(41);
  const scenario::TopologyPtr topology = scenario::shard_topology(wo);
  const auto worlds = scenario::make_shard_worlds(wo, topology, 2);
  std::vector<ScanWorld> scan_worlds = scenario::scan_worlds(worlds);
  scan_worlds[1].reseed = [](std::uint64_t) {
    throw std::runtime_error("world reseed failed");
  };
  RttMatrix m;
  ParallelScanner scanner(scan_worlds, m);
  EXPECT_THROW(scanner.scan(scenario::shard_scan_nodes(wo, topology),
                            deterministic(7)),
               std::runtime_error);
  EXPECT_EQ(m.size(), 0u);  // nothing merges from a failed scan
}

}  // namespace
}  // namespace ting::meas
