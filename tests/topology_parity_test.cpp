// Parity between worlds sharing one immutable topology and worlds that each
// derive a private topology from the same seed (the historical
// clone-per-shard construction, built here by hand as the reference): for
// the same seed and world count the two must be indistinguishable in every
// scan artifact — merged matrix CSV and merged half-circuit cache CSV —
// including with a fault plan active. Sharing the topology is a pure
// setup-cost optimization, never a behavioural change. The daemon case
// pins the persistent-world path the same way: its on-disk store under a
// fault plan is the same at W=4 as at W=1.
//
// Note the scan case is parity at the SAME world count W. Bit-identity
// ACROSS W (sharded_scan_test) holds only without faults, because fault
// windows fire at per-world virtual times; shared-vs-private parity has no
// such caveat — both build worlds with identical streams, so they agree
// even when faults are active.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "scenario/daemon_world.h"
#include "scenario/shard_world.h"
#include "ting/daemon.h"
#include "ting/half_circuit_cache.h"
#include "ting/scheduler.h"

namespace ting::meas {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing file: " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

scenario::ShardWorldOptions faulted_scan_world() {
  scenario::ShardWorldOptions o;
  o.relays = 10;
  o.scan_nodes = 8;
  o.testbed.seed = 51;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 10;
  o.fault_spec = "loss:*:0.03";
  return o;
}

struct ScanArtifacts {
  std::string matrix_csv;
  std::string halves_bin;
  ScanReport report;
};

ScanArtifacts run_sharded_scan(bool shared, std::size_t shards) {
  const scenario::ShardWorldOptions wo = faulted_scan_world();
  const scenario::TopologyPtr topology = scenario::shard_topology(wo);
  std::vector<std::unique_ptr<scenario::TestbedShardWorld>> worlds;
  if (shared) {
    worlds = scenario::make_shard_worlds(wo, topology, shards);
  } else {
    // Reference: every world re-derives the full topology from the seed.
    for (std::size_t s = 0; s < shards; ++s)
      worlds.push_back(std::make_unique<scenario::TestbedShardWorld>(
          wo, scenario::shard_topology(wo)));
  }
  RttMatrix m;
  HalfCircuitCache halves;
  ParallelScanner scanner(scenario::scan_worlds(worlds), m);
  ScanOptions so;
  so.deterministic = true;
  so.pair_seed = 7;
  so.half_cache = &halves;
  so.attempts_per_pair = 6;  // ride out the 3% loss plan
  ScanArtifacts a;
  a.report = scanner.scan(scenario::shard_scan_nodes(wo, topology), so);
  a.matrix_csv = m.to_csv();
  a.halves_bin = halves.to_bin();
  return a;
}

TEST(TopologyParityTest, ShardedScanMatchesLegacyClonesUnderFaults) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const ScanArtifacts shared = run_sharded_scan(true, shards);
    const ScanArtifacts legacy = run_sharded_scan(false, shards);
    EXPECT_EQ(shared.matrix_csv, legacy.matrix_csv) << "W=" << shards;
    EXPECT_EQ(shared.halves_bin, legacy.halves_bin) << "W=" << shards;
    // The deterministic replay machinery must be untouched by the
    // construction path: same pair worklist, same per-pair reseeds.
    EXPECT_EQ(shared.report.reseeds, legacy.report.reseeds) << "W=" << shards;
    EXPECT_EQ(shared.report.measured, legacy.report.measured);
    EXPECT_EQ(shared.report.failed, legacy.report.failed);
    EXPECT_GT(shared.matrix_csv.size(), 0u);
  }
}

scenario::DaemonWorldOptions faulted_daemon_world(std::size_t shards) {
  scenario::DaemonWorldOptions o;
  o.relays = 10;
  o.testbed.seed = 52;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 8;
  o.churn.seed = 53;
  o.churn.churn_rate = 0.1;
  o.churn.rejoin_rate = 0.5;
  o.fault_spec = "loss:*:0.02";
  o.shards = shards;
  return o;
}

TEST(TopologyParityTest, DaemonDeltaEpochMatchesLegacyClones) {
  // Two epochs: epoch 0 measures the full mesh, epoch 1 only the churn
  // delta — the persistent worlds carry half-warm state across the
  // boundary, which is exactly where a divergence between four shared-
  // topology worlds and the single-world reference would surface.
  const auto run = [](std::size_t shards, const std::string& out) {
    scenario::TestbedDaemonEnvironment env(faulted_daemon_world(shards));
    DaemonOptions d;
    d.epochs = 2;
    d.out = out;
    d.seed = 5;
    d.config_tag = "topology-parity";
    ScanDaemon daemon(env, d);
    return daemon.run();
  };
  const std::string shared_out =
      ::testing::TempDir() + "/parity_shared.tingmx";
  const std::string single_out =
      ::testing::TempDir() + "/parity_single.tingmx";
  const DaemonReport shared = run(4, shared_out);
  const DaemonReport single = run(1, single_out);

  ASSERT_EQ(shared.epochs.size(), 2u);
  ASSERT_EQ(single.epochs.size(), 2u);
  for (std::size_t e = 0; e < 2; ++e) {
    EXPECT_EQ(shared.epochs[e].scan.pairs_total,
              single.epochs[e].scan.pairs_total) << "epoch " << e;
    EXPECT_EQ(shared.epochs[e].scan.measured,
              single.epochs[e].scan.measured) << "epoch " << e;
    // Same per-pair replay; each of the four worlds warms a private
    // half-cache copy, so it can only add half-probe reseeds.
    EXPECT_GE(shared.epochs[e].scan.reseeds,
              single.epochs[e].scan.reseeds) << "epoch " << e;
  }
  // Epoch 1 really was a delta, not a rescan.
  EXPECT_LT(shared.epochs[1].scan.pairs_total,
            shared.epochs[0].scan.pairs_total);
  // The artifacts both runs leave on disk are byte-identical.
  EXPECT_EQ(read_file(shared_out), read_file(single_out));
  EXPECT_EQ(read_file(ScanDaemon::halves_path(shared_out)),
            read_file(ScanDaemon::halves_path(single_out)));
}

}  // namespace
}  // namespace ting::meas
