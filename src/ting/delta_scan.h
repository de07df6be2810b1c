// Consensus-delta scan planning — the daemon's answer to "which pairs does
// this epoch actually need to measure?".
//
// A continuous scan never re-runs all-pairs from scratch (DiProber's
// continuous-estimation framing; at live-network scale a full rescan is
// ~18M pairs). Instead each epoch plans a *delta* worklist against the
// stored matrix:
//
//   - never-measured pairs (a relay joined the consensus, or a prior epoch
//     failed/deferred the pair) go first — every missing pair costs
//     coverage,
//   - then TTL-expired pairs, oldest first — refreshing the stalest
//     estimate buys the most accuracy per measurement,
//   - fresh pairs are skipped entirely.
//
// Under a per-epoch measurement budget the ordered candidate list is cut by
// a bounded partial sort (new pairs always beat expired ones; among expired,
// oldest-first), and the remainder waits for the next epoch. Planning is a
// pure function of (matrix, node set, clock, options), so an epoch resumed
// after a crash re-derives exactly the worklist the crashed process was
// running.
//
// Planning never probes pair by pair: the store's presence rows answer
// "never measured" with bit tests in node-index order, and its freshness
// wheel lists the expired pairs: popcounts plus at most one bit test per
// pair, not one hash probe per candidate pair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "dir/fingerprint.h"
#include "ting/rtt_matrix.h"
#include "ting/scheduler.h"
#include "util/time.h"

namespace ting::meas {

struct DeltaPlanOptions {
  /// Refresh TTL: a pair measured within `ttl` of the planning clock is
  /// fresh and not replanned. Sits on top of the engines' 7-day staleness
  /// (ScanOptions::max_age governs intra-scan cache skips; this governs
  /// which pairs enter the worklist at all).
  Duration ttl = Duration::seconds(7 * 24 * 3600);
  /// Per-epoch measurement budget: keep at most this many pairs (0 =
  /// unlimited). Truncation drops the lowest-priority candidates.
  std::size_t budget = 0;
};

struct DeltaPlan {
  /// The epoch worklist as index pairs into the planning node vector
  /// (ParallelScanner::scan_pairs input),
  /// priority order: new pairs (by index), then expired pairs oldest-first.
  ParallelScanner::PairList pairs;
  std::size_t new_pairs = 0;      ///< never measured
  std::size_t expired_pairs = 0;  ///< measured, but older than ttl
  std::size_t fresh_pairs = 0;    ///< skipped: measured within ttl
  /// Candidates cut by the budget (they stay stale and re-plan next epoch).
  std::size_t dropped_over_budget = 0;
};

/// Plan one epoch's delta worklist over the all-pairs set of `nodes`.
DeltaPlan plan_delta(const RttMatrix& matrix,
                     const std::vector<dir::Fingerprint>& nodes, TimePoint now,
                     const DeltaPlanOptions& options = {});

/// One TTL-expired worklist candidate: an index pair into the planning node
/// vector plus the stamp that expired.
struct ExpiredCandidate {
  std::size_t i = 0, j = 0;
  TimePoint measured_at;
};

/// Priority among expired candidates: older beats newer, and equal stamps
/// tie-break on the index pair. This is a strict total order, so a budget
/// cut keeps exactly the prefix a full sort would. (The daemon restamps
/// whole epochs with one clock value, so equal-stamp ties are the common
/// case, not a corner.)
bool expired_before(const ExpiredCandidate& l, const ExpiredCandidate& r);

/// Tracks consensus membership across epochs and reports the churn delta —
/// which relays joined and which left since the previous observation. The
/// daemon feeds each epoch's node set through this to report churn; the
/// plan itself needs no history.
class ConsensusDeltaTracker {
 public:
  struct Delta {
    std::vector<dir::Fingerprint> joined;  ///< sorted
    std::vector<dir::Fingerprint> left;    ///< sorted
  };

  /// Record `nodes` as the current consensus and return the delta against
  /// the previously observed set (first call: everything joined).
  Delta observe(const std::vector<dir::Fingerprint>& nodes);

  const std::set<dir::Fingerprint>& current() const { return current_; }

 private:
  std::set<dir::Fingerprint> current_;
};

}  // namespace ting::meas
