// TestbedDaemonEnvironment — the simulated-deployment backend for the scan
// daemon (ting/daemon.h): persistent shard worlds plus a deterministic
// churn feed, wired to the DaemonEnvironment interface.
//
// The environment owns `shards` identical TestbedShardWorld instances over
// one shared topology that live across epochs (unlike a batch scan, which
// builds worlds per invocation — the daemon's whole point is that state
// persists). Each epoch boundary the ChurnFeed's events are projected onto
// *every* world so their directory views stay in lockstep, then the epoch
// worklist runs through ParallelScanner::scan_pairs over those worlds.
//
// Fault plans (--faults, including die:) are applied per world at
// construction and fire at each world's own virtual times, so with faults
// the worlds' consensus views can transiently disagree mid-epoch — the same
// caveat batch scans over several worlds carry. The churn feed itself is
// epoch-aligned and identical everywhere.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/churn_feed.h"
#include "scenario/shard_world.h"
#include "ting/daemon.h"

namespace ting::scenario {

struct DaemonWorldOptions {
  /// Testbed size; the daemon scans ALL relays (the consensus IS the scan
  /// set — that is what distinguishes a daemon from a targeted scan).
  std::size_t relays = 20;
  TestbedOptions testbed;
  meas::TingConfig ting;
  ChurnFeedOptions churn;
  /// Optional fault spec (scenario/faults.h grammar) applied to each world.
  std::string fault_spec;
  /// Worker threads = persistent shard worlds.
  std::size_t shards = 1;
};

class TestbedDaemonEnvironment : public meas::DaemonEnvironment {
 public:
  explicit TestbedDaemonEnvironment(const DaemonWorldOptions& options);

  void advance_epoch(std::size_t epoch) override;
  std::vector<dir::Fingerprint> nodes() override;
  meas::ScanReport scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                              const meas::ParallelScanner::PairList& pairs,
                              meas::RttMatrix& epoch_matrix,
                              const meas::ScanOptions& options,
                              const meas::ScanProgress& progress) override;

  /// The reference world (index 0) — tests use it for ground truth.
  Testbed& world() { return worlds_[0]->world(); }

  /// Wall-clock milliseconds spent building the persistent shard worlds
  /// (topology + per-world instantiation), for the daemon's setup-cost
  /// reporting; epoch scans reuse these worlds.
  double world_construct_ms() const { return world_construct_ms_; }

 private:
  DaemonWorldOptions options_;
  double world_construct_ms_ = 0;
  std::vector<std::unique_ptr<TestbedShardWorld>> worlds_;
  std::vector<std::unique_ptr<ChurnApplier>> appliers_;
  std::unique_ptr<ChurnFeed> feed_;
};

}  // namespace ting::scenario
