#include "scenario/shard_world.h"

#include <algorithm>

#include "scenario/faults.h"
#include "util/assert.h"

namespace ting::scenario {

TestbedShardWorld::TestbedShardWorld(const ShardWorldOptions& options,
                                     TopologyPtr topology)
    : world_(testbed_from_topology(std::move(topology))) {
  std::vector<dir::Fingerprint> nodes;
  const std::size_t n = std::min(options.scan_nodes, world_.relay_count());
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(world_.fp(i));

  plan_ = std::make_unique<simnet::FaultPlan>(world_.net());
  if (!options.fault_spec.empty()) {
    const FaultSpec spec = FaultSpec::parse(options.fault_spec);
    apply_fault_spec(spec, world_, nodes, *plan_, options.testbed.seed);
    scan_world_.fault_plan = plan_.get();
  }

  for (meas::MeasurementHost* host :
       world_.measurement_pool(std::max<std::size_t>(1, options.pool))) {
    measurers_.push_back(
        std::make_unique<meas::TingMeasurer>(*host, options.ting));
    scan_world_.measurers.push_back(measurers_.back().get());
  }
  scan_world_.reseed = [this](std::uint64_t seed) {
    world_.reseed_stochastics(seed);
  };
  scan_world_.live_consensus = &world_.consensus();
}

std::vector<std::unique_ptr<TestbedShardWorld>> make_shard_worlds(
    const ShardWorldOptions& options, const TopologyPtr& topology,
    std::size_t count) {
  TING_CHECK(topology != nullptr);
  std::vector<std::unique_ptr<TestbedShardWorld>> worlds;
  worlds.reserve(count);
  for (std::size_t w = 0; w < count; ++w)
    worlds.push_back(std::make_unique<TestbedShardWorld>(options, topology));
  return worlds;
}

std::vector<meas::ScanWorld> scan_worlds(
    const std::vector<std::unique_ptr<TestbedShardWorld>>& worlds) {
  std::vector<meas::ScanWorld> out;
  out.reserve(worlds.size());
  for (const auto& w : worlds) out.push_back(w->scan_world());
  return out;
}

TopologyPtr shard_topology(const ShardWorldOptions& options) {
  return SharedTopology::live_tor(options.relays, options.testbed);
}

std::vector<dir::Fingerprint> shard_scan_nodes(const ShardWorldOptions& options,
                                               const TopologyPtr& topology) {
  std::vector<dir::Fingerprint> nodes;
  const std::size_t n =
      std::min(options.scan_nodes, topology->relays().size());
  nodes.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    nodes.push_back(topology->relays()[i].fingerprint);
  return nodes;
}

}  // namespace ting::scenario
