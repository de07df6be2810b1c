#include "scenario/daemon_world.h"

#include <algorithm>
#include <chrono>

#include "util/assert.h"

namespace ting::scenario {

namespace {

std::vector<meas::MeasurementHost*> pool_hosts(const TestbedShardWorld& w) {
  std::vector<meas::MeasurementHost*> hosts;
  for (meas::TingMeasurer* m : w.scan_world().measurers)
    hosts.push_back(&m->host());
  return hosts;
}

}  // namespace

TestbedDaemonEnvironment::TestbedDaemonEnvironment(
    const DaemonWorldOptions& options)
    : options_(options) {
  TING_CHECK(options_.shards >= 1);
  ShardWorldOptions swo;
  swo.relays = options_.relays;
  swo.scan_nodes = options_.relays;  // the consensus is the scan set
  swo.testbed = options_.testbed;
  swo.ting = options_.ting;
  swo.fault_spec = options_.fault_spec;
  const auto construct_start = std::chrono::steady_clock::now();
  worlds_ = make_shard_worlds(swo, shard_topology(swo), options_.shards);
  for (const auto& w : worlds_)
    appliers_.push_back(std::make_unique<ChurnApplier>(w->world()));
  world_construct_ms_ = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - construct_start)
                            .count();
  feed_ = std::make_unique<ChurnFeed>(worlds_[0]->world().all_fingerprints(),
                                      options_.churn);
}

void TestbedDaemonEnvironment::advance_epoch(std::size_t epoch) {
  const std::vector<ChurnFeed::Event> events = feed_->advance(epoch);
  for (std::size_t s = 0; s < worlds_.size(); ++s)
    appliers_[s]->apply(events, pool_hosts(*worlds_[s]));
}

std::vector<dir::Fingerprint> TestbedDaemonEnvironment::nodes() {
  // Construction order filtered by consensus membership: deterministic
  // across processes, which the planner's index pairs rely on.
  Testbed& tb = worlds_[0]->world();
  std::vector<dir::Fingerprint> out;
  out.reserve(tb.relay_count());
  for (std::size_t i = 0; i < tb.relay_count(); ++i)
    if (tb.consensus().find(tb.fp(i)) != nullptr) out.push_back(tb.fp(i));
  return out;
}

meas::ScanReport TestbedDaemonEnvironment::scan_pairs(
    const std::vector<dir::Fingerprint>& nodes,
    const meas::ParallelScanner::PairList& pairs,
    meas::RttMatrix& epoch_matrix, const meas::ScanOptions& options,
    const meas::ScanProgress& progress) {
  meas::ParallelScanner scanner(scan_worlds(worlds_), epoch_matrix);
  return scanner.scan_pairs(nodes, pairs, options, progress);
}

}  // namespace ting::scenario
