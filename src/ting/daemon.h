// ScanDaemon — the continuous scan service: "a scan that never finishes".
//
// The batch engines answer "measure these pairs once"; the daemon runs them
// forever in *epochs* against a churning consensus. Each epoch it
//
//   1. advances the consensus (the environment applies whatever churn the
//      epoch brings and reports the current relay set),
//   2. plans a delta worklist (delta_scan.h): never-measured pairs first,
//      then TTL-expired ones oldest-first, cut to the per-epoch budget,
//   3. runs the worklist through the scan engine (ParallelScanner) in
//      deterministic mode with a per-epoch pair seed, journaling every
//      result as it lands (scan_journal.h),
//   4. folds the epoch's results into the persistent RttMatrix,
//      stamped with the epoch clock, and atomically checkpoints the matrix,
//      the half-circuit cache, and the daemon state file.
//
// Crash safety: SIGTERM or kill -9 at *any* point resumes into the same
// epoch. The state file records the next epoch to run; the journal replays
// the interrupted epoch's completed pairs; the half-cache checkpoint
// restores memoized half circuits from earlier epochs bit-exactly. Because
// the engine is deterministic (every estimate a pure function of world
// seed, epoch pair seed, and the pair), the resumed run re-measures only
// the missing pairs and produces a final matrix byte-identical to one from
// an uninterrupted run.
//
// Epoch clock: the deterministic engine records zero timestamps (world
// clocks are unrelated), so the daemon keeps its own virtual clock — epoch
// e completes at (e+1) * epoch_interval — and stamps absorbed results with
// it. TTL decisions therefore depend only on epoch numbers, never on which
// process measured a pair or when it restarted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dir/fingerprint.h"
#include "ting/delta_scan.h"
#include "ting/half_circuit_cache.h"
#include "ting/rtt_matrix.h"
#include "ting/scheduler.h"
#include "util/time.h"

namespace ting::meas {

/// The daemon's window onto a (simulated or real) Tor network: consensus
/// churn plus the measurement engine. scenario/ provides testbed-backed
/// implementations; keeping the interface here keeps ting_core free of
/// scenario dependencies.
class DaemonEnvironment {
 public:
  virtual ~DaemonEnvironment() = default;

  /// Advance the consensus to epoch `e` (apply the churn that epoch
  /// brings). Called exactly once per epoch in increasing order; on resume
  /// the daemon replays epochs 0..E-1 through this before re-entering epoch
  /// E, so implementations must derive churn deterministically from the
  /// epoch number.
  virtual void advance_epoch(std::size_t epoch) = 0;

  /// The current consensus relay set, in a deterministic order.
  virtual std::vector<dir::Fingerprint> nodes() = 0;

  /// Run one epoch's worklist. `options` carries the daemon's journal,
  /// stop flag, half cache, per-epoch pair seed and deterministic mode; the
  /// environment supplies its worlds and returns the engine report.
  /// Results land in `epoch_matrix` (pre-seeded with journal-recovered
  /// pairs on resume).
  virtual ScanReport scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                                const ParallelScanner::PairList& pairs,
                                RttMatrix& epoch_matrix,
                                const ScanOptions& options,
                                const ScanProgress& progress) = 0;
};

/// Post-checkpoint hook: invoked after an epoch's artifacts are durable on
/// disk (matrix + halves saved, journal removed, state bumped) with the
/// persistent matrix, the epoch's consensus, the relays that gained or
/// refreshed at least one pair this epoch, and the epoch stats. The serving
/// layer (serve::PathServer) publishes snapshots from here; keeping it a
/// std::function keeps ting_core free of serving dependencies.
struct EpochStats;
using CheckpointHook = std::function<void(
    const RttMatrix& matrix, const std::vector<dir::Fingerprint>& nodes,
    const std::vector<dir::Fingerprint>& changed, const EpochStats& stats)>;

struct DaemonOptions {
  /// Epochs to run before returning (a real deployment would pass a large
  /// number and rely on SIGTERM + --resume; tests pass a handful).
  std::size_t epochs = 24;
  /// Virtual wall time per epoch — the daemon clock's tick.
  Duration epoch_interval = Duration::seconds(3600);
  /// Refresh TTL for delta planning (see DeltaPlanOptions::ttl).
  Duration ttl = Duration::seconds(7 * 24 * 3600);
  /// Per-epoch measurement budget (pairs; 0 = unlimited).
  std::size_t budget = 0;
  /// Coverage the run is judged against (fresh pairs / current pairs).
  double coverage_target = 0.99;

  /// Persistent matrix path (binary format; required). The state
  /// file lives at out + ".state", the journal at out + ".journal", the
  /// half-cache checkpoint at out + ".halves".
  std::string out;
  /// Resume from the state file + journal instead of starting fresh.
  bool resume = false;
  /// Identifies the world/config this store belongs to; recorded in the
  /// state file and verified on resume so a store is never resumed against
  /// a different testbed or flag set.
  std::string config_tag;

  /// Master seed; epoch e scans with pair_seed = epoch_pair_seed(seed, e).
  std::uint64_t seed = 1;
  /// Memoize half circuits across pairs and epochs (checkpointed).
  bool half_cache = true;
  /// Write the per-pair fsync'd journal. Disabling it trades pair-granular
  /// crash resume for epoch-granular resume (the state file and matrix
  /// checkpoint still make kill -9 safe at epoch boundaries) — at 6,000
  /// relays the per-record fsync dominates an epoch's wall time.
  bool journal = true;
  /// Graceful-shutdown flag (from a signal handler). Checked between pairs
  /// (via the engine) and between epochs.
  const std::atomic<bool>* stop = nullptr;
  /// Engine template for each epoch's scan: attempts, ordering, quarantine,
  /// etc. The daemon overrides journal/stop/half_cache/pair_seed/max_age/
  /// deterministic per epoch.
  ScanOptions engine;
  /// Invoked after each completed epoch's checkpoint is durable; see
  /// CheckpointHook. Empty = no serving layer attached.
  CheckpointHook on_checkpoint;
};

struct EpochStats {
  std::size_t epoch = 0;
  std::size_t nodes = 0;
  std::size_t joined = 0;  ///< relays that entered the consensus this epoch
  std::size_t left = 0;    ///< relays that departed
  DeltaPlan plan;
  ScanReport scan;
  /// Pairs recovered from the journal when this epoch resumed a crash.
  std::size_t journal_recovered = 0;
  /// Post-epoch freshness census over the current consensus.
  RttMatrix::CoverageCount coverage;
  /// Persistent store size after this epoch's absorb (pairs + estimated
  /// heap bytes) — the per-epoch memory trajectory at 18M-entry scale.
  std::size_t matrix_pairs = 0;
  std::size_t matrix_bytes = 0;
};

struct DaemonReport {
  std::vector<EpochStats> epochs;  ///< epochs run by *this* process
  std::size_t epochs_completed = 0;  ///< lifetime total, including prior runs
  bool interrupted = false;        ///< the stop flag fired mid-run
  double final_coverage = 0;
  bool converged = false;          ///< final_coverage >= coverage_target
  std::size_t matrix_pairs = 0;
  std::size_t matrix_bytes = 0;    ///< estimated store heap footprint
};

/// Per-epoch progress callback (invoked after each completed epoch).
using EpochCallback = std::function<void(const EpochStats&)>;

class ScanDaemon {
 public:
  ScanDaemon(DaemonEnvironment& env, DaemonOptions options);

  /// Run epochs until the configured count is reached or the stop flag
  /// fires. Blocking; returns the report either way. Throws CheckError on
  /// unusable state (missing state file with --resume, config mismatch,
  /// corrupt matrix).
  DaemonReport run(const EpochCallback& on_epoch = {},
                   const ScanProgress& progress = {});

  const RttMatrix& matrix() const { return matrix_; }

  /// The per-epoch engine pair seed: a well-mixed function of the master
  /// seed and the epoch number, so every epoch's estimates are independent
  /// and a resumed epoch reseeds identically.
  static std::uint64_t epoch_pair_seed(std::uint64_t seed, std::size_t epoch);

  /// The daemon clock at the end of epoch `e` — what absorbed results are
  /// stamped with and TTL planning measures against.
  static TimePoint epoch_clock(Duration interval, std::size_t epoch) {
    return TimePoint{} + interval * static_cast<std::int64_t>(epoch + 1);
  }

  static std::string state_path(const std::string& out) { return out + ".state"; }
  static std::string journal_path(const std::string& out) {
    return out + ".journal";
  }
  static std::string halves_path(const std::string& out) {
    return out + ".halves";
  }

 private:
  struct State {
    std::uint64_t seed = 0;
    std::int64_t epoch_interval_ns = 0;
    std::int64_t ttl_ns = 0;
    std::uint64_t budget = 0;
    std::string config_tag;
    std::size_t next_epoch = 0;
  };
  void write_state(std::size_t next_epoch) const;
  State load_state() const;

  DaemonEnvironment& env_;
  DaemonOptions options_;
  RttMatrix matrix_;
  HalfCircuitCache half_cache_;
};

}  // namespace ting::meas
