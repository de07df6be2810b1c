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
// a freshness heap (new pairs always beat expired ones; among expired,
// oldest-first), and the remainder waits for the next epoch. Planning is a
// pure function of (matrix, node set, clock, options), so an epoch resumed
// after a crash re-derives exactly the worklist the crashed process was
// running.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <unordered_map>
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
/// tie-break on the index pair. This is a strict total order, so
/// plan_delta's full sort, its bounded freshness heap, and the incremental
/// planner's wheel-fed path all cut the same candidates in the same order —
/// the property the bit-for-bit equivalence tests pin. (The daemon restamps
/// whole epochs with one clock value, so equal-stamp ties are the common
/// case, not a corner.)
bool expired_before(const ExpiredCandidate& l, const ExpiredCandidate& r);

/// Incremental equivalent of plan_delta() for the daemon's steady state:
/// instead of re-probing all C(n,2) pairs each epoch, it maintains the
/// missing-pair backlog across calls and pays only for the epoch's actual
/// work — O(joined·n) churn candidates, O(expired) records off the matrix's
/// freshness wheel, O(backlog) cleanup, and O(budget) emission. The first
/// call (and the first call after reset()) runs the same full census as
/// plan_delta and primes the backlog, which is exactly what a crash-resumed
/// process needs: resuming re-derives the crashed epoch's worklist from the
/// persisted matrix alone.
///
/// Equivalence contract (pinned by tests): the returned plan is identical —
/// pair order and all counters — to plan_delta over the same (matrix,
/// nodes, now, options), provided
///   (a) surviving relays keep their relative order across successive
///       `nodes` vectors (both daemon environments enumerate testbed
///       construction order filtered by membership, which guarantees this),
///   (b) `joined` is exactly the churn-in since the previous call
///       (ConsensusDeltaTracker::observe's output), and
///   (c) between calls the matrix only gains or refreshes entries
///       (set/merge/absorb) — after erase_relay(), call reset().
class IncrementalDeltaPlanner {
 public:
  DeltaPlan plan_delta_incremental(const RttMatrix& matrix,
                                   const std::vector<dir::Fingerprint>& nodes,
                                   const std::vector<dir::Fingerprint>& joined,
                                   TimePoint now,
                                   const DeltaPlanOptions& options = {});

  /// Drop the backlog; the next call runs a full census again.
  void reset();
  bool primed() const { return primed_; }
  /// Missing pairs carried by the backlog (8 bytes each — the bootstrap
  /// backlog of an empty 6,000-relay matrix is ~18M pairs, ~144 MB).
  std::size_t backlog_pairs() const { return missing_.size(); }

 private:
  std::uint32_t intern(const dir::Fingerprint& fp);

  bool primed_ = false;
  /// Interned relay ids: fingerprints recur across epochs, so the backlog
  /// stores 4-byte ids instead of 20-byte fingerprints.
  std::vector<dir::Fingerprint> fp_by_id_;
  std::unordered_map<dir::Fingerprint, std::uint32_t> id_of_;
  /// Never-measured pairs among the last planned epoch's members, kept in
  /// that epoch's node-index order (stable for survivors per the contract).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> missing_;
};

/// Tracks consensus membership across epochs and reports the churn delta —
/// which relays joined and which left since the previous observation. The
/// daemon feeds each epoch's node set through this to log churn and to hand
/// the joined set to the incremental planner; the plan itself stays a pure
/// function of (matrix, nodes, clock, options) — plan_delta needs no
/// history, and the incremental planner's backlog is just a cache of what
/// the matrix already encodes.
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
