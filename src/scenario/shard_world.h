// Testbed-backed worlds for the scan engine: every world is instantiated
// over one shared immutable topology from the same ShardWorldOptions — same
// seed, therefore the same relay fingerprints, geography, and latency model
// in every world — so per-world measurements land on the same logical
// pairs and merge cleanly. `ting scan`, the scan daemon, the tests and the
// benches all build their worlds this way and hand them to
// meas::ParallelScanner as ScanWorld descriptors.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "scenario/testbed.h"
#include "simnet/fault_plan.h"
#include "ting/scheduler.h"

namespace ting::scenario {

struct ShardWorldOptions {
  /// Testbed size (live_tor relays) and which prefix of them is scanned.
  std::size_t relays = 25;
  std::size_t scan_nodes = 12;
  /// World construction parameters — identical across worlds by design.
  TestbedOptions testbed;
  meas::TingConfig ting;
  /// Measurement hosts per world (the pool's concurrency K; deterministic
  /// mode only drives the first).
  std::size_t pool = 1;
  /// Optional fault spec (scenario/faults.h grammar), applied to each
  /// world's scan nodes. Faults fire at per-world virtual times, so
  /// bit-identity across world counts no longer holds.
  std::string fault_spec;
};

/// One world: a Testbed plus its measurers and (optional) fault plan, owned
/// together. Lives on the thread that built it until the engine drives it
/// from a worker; it is never touched from two threads at once.
class TestbedShardWorld {
 public:
  /// Instantiates the mutable world half over a pre-built topology.
  TestbedShardWorld(const ShardWorldOptions& options, TopologyPtr topology);
  TestbedShardWorld(const TestbedShardWorld&) = delete;
  TestbedShardWorld& operator=(const TestbedShardWorld&) = delete;

  /// The engine's view of this world: its measurers, a reseed hook, its
  /// live consensus and its fault plan. Valid for the world's lifetime.
  const meas::ScanWorld& scan_world() const { return scan_world_; }

  Testbed& world() { return world_; }

 private:
  Testbed world_;
  std::unique_ptr<simnet::FaultPlan> plan_;
  std::vector<std::unique_ptr<meas::TingMeasurer>> measurers_;
  meas::ScanWorld scan_world_;
};

/// `count` identical worlds instantiated over `topology`.
std::vector<std::unique_ptr<TestbedShardWorld>> make_shard_worlds(
    const ShardWorldOptions& options, const TopologyPtr& topology,
    std::size_t count);

/// The engine descriptors of `worlds`, in order.
std::vector<meas::ScanWorld> scan_worlds(
    const std::vector<std::unique_ptr<TestbedShardWorld>>& worlds);

/// The topology such worlds share: live_tor(options.relays) frozen at the
/// immutable layer.
TopologyPtr shard_topology(const ShardWorldOptions& options);

/// The scan-node fingerprints such worlds carry, read off the frozen
/// topology without building any world.
std::vector<dir::Fingerprint> shard_scan_nodes(const ShardWorldOptions& options,
                                               const TopologyPtr& topology);

}  // namespace ting::scenario
