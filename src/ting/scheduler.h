// The scan engine — the driver that turns single-pair Ting measurements
// into the all-pairs RTT datasets the §5 applications consume.
//
// It implements the operational practices the paper describes: pairs are
// probed in randomized order (§4.2), results land in a cached RttMatrix,
// fresh cache entries are skipped on re-scan (§4.6: measurements are stable
// over a week, so "taking measurements with Ting infrequently and caching
// them is sufficient"), failed pairs are retried a bounded number of times
// before being reported, and the pair list is measured in parallel because
// it "parallelizes trivially" (§4.5).
//
// ParallelScanner drives W caller-owned worlds (ScanWorld). The pair list
// is dealt round-robin across them, one worker thread per world when
// W > 1; each worker measures its slice against private copies of the
// caller's matrix and half-circuit cache. After the threads join, the
// per-world reports and half caches are merged, and each world's entries
// for its own slice are copied back into the caller's matrix. Threads never
// share mutable state, so the engine is clean under TSan by construction.
// Inside each world one of two drivers runs:
//
//  - the pool (the default): the world's K measurers keep up to K pairs in
//    flight on its event loop, under an admission policy that caps
//    concurrent circuits per target relay, so a hot relay is never probed
//    by many circuits at once (which would inflate its observed minimum,
//    the congestion concern of §4.3). K = 1 is the paper's own
//    one-pair-at-a-time scan.
//  - deterministic replay (ScanOptions::deterministic): pairs strictly one
//    at a time on the world's first measurer, with the world reseeded
//    before every probe, so each pair's estimate is a pure function of
//    (world construction seed, pair_seed, x, y) and the merged matrix is
//    bit-identical for any W. Cache entries carry a zero timestamp because
//    the worlds run unrelated virtual clocks.
//
// Failures are handled per ErrorClass (see measurer.h): transients retry
// with backoff, permanents fail immediately after their single attempt, and
// churned relays are re-resolved against the world's live consensus
// (descriptor re-injected into its onion proxies) before the pair is
// requeued.
//
// Caveat: fault plans fire at per-world virtual times, so bit-identity
// across world counts is only guaranteed for fault-free scans.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dir/consensus.h"
#include "simnet/fault_plan.h"
#include "ting/measurer.h"
#include "ting/quarantine.h"
#include "ting/rtt_matrix.h"

namespace ting::meas {

class ScanJournal;

struct ScanOptions {
  /// Skip pairs whose cached entry is at most this old (0 = remeasure all).
  Duration max_age = Duration::seconds(7 * 24 * 3600);
  int attempts_per_pair = 2;
  bool randomize_order = true;
  std::uint64_t order_seed = 1;
  /// Delay before a churned pair is requeued — time for a fresh consensus
  /// to arrive, used instead of the exponential transient backoff.
  Duration churn_requeue_delay = Duration::seconds(60);
  /// Backoff before the k-th retry of a transiently-failed pair:
  /// retry_backoff_base * retry_backoff_factor^(k-1).
  Duration retry_backoff_base = Duration::seconds(10);
  int retry_backoff_factor = 2;
  /// Max concurrent pair measurements touching one target relay in the
  /// pool. A pair (x, y) holds one slot on x and one on y for its whole
  /// measurement (its three circuits all traverse them).
  int per_relay_cap = 1;

  // ---- measurement-plane optimizations -------------------------------------
  /// Half-circuit memoization: when set, fresh R_Cx/R_Cy entries satisfy the
  /// C_x/C_y probes without building a circuit, and successful misses are
  /// stored back. The pool attaches the cache to its measurers for the
  /// scan's duration (entries are keyed per measurement apparatus — see
  /// half_circuit_cache.h); the deterministic driver instead reseeds the
  /// world per half-circuit so memoized and fresh values are bit-identical.
  /// A relay's entries are dropped whenever churn forces a re-resolution.
  HalfCircuitCache* half_cache = nullptr;
  /// Pipelined circuit builds: while one pair samples, its host prebuilds
  /// the C_xy circuit of a queued pair and the pool routes that pair back
  /// to it, so EXTENDCIRCUIT round trips overlap sampling instead of
  /// serialising behind it. Ignored in deterministic mode, where a circuit
  /// built under the previous pair's world seed would break per-pair purity.
  bool pipeline_builds = true;

  // ---- crash safety and graceful degradation -------------------------------
  /// Write-ahead journal: every terminally-resolved pair (and, via the
  /// half-circuit cache's store observer, every half measurement) is
  /// appended and fsync'd as it lands, so a crashed scan can resume from
  /// the journal. Shared across worker threads (the journal is thread-safe).
  ScanJournal* journal = nullptr;
  /// Graceful-shutdown flag (e.g. set from a SIGINT handler). When it goes
  /// true the engine stops claiming new pairs, lets in-flight measurements
  /// drain, and reports the unprobed remainder as interrupted_pairs.
  const std::atomic<bool>* stop = nullptr;
  /// Per-relay circuit breaker (see quarantine.h): consecutive permanent
  /// failures quarantine a relay, deferring its pending pairs instead of
  /// burning one doomed attempt per pair.
  QuarantineOptions quarantine;

  // ---- deterministic per-pair mode -----------------------------------------
  /// Measure strictly one pair at a time on each world's first measurer,
  /// draining in-flight traffic and calling the world's reseed hook with
  /// pair_reseed(pair_seed, x, y) before every attempt (see the file
  /// comment). Every world must supply a reseed hook.
  bool deterministic = false;
  /// Master seed mixed into every per-pair reseed value.
  std::uint64_t pair_seed = 1;
};

/// One world the engine drives: a simulation (or a deployment) whose
/// measurers share one event loop, plus the hooks that describe it. The
/// caller owns everything referenced here and keeps it alive for the scan;
/// with W > 1 worlds each is driven from its own thread, so nothing mutable
/// may be shared between them.
struct ScanWorld {
  /// The measurement pool: K >= 1 measurers (one per measurement host),
  /// all on one event loop, already started. The pool keeps up to K pairs
  /// in flight; deterministic mode drives only the first.
  std::vector<TingMeasurer*> measurers{};
  /// Reset every stochastic component of the world (network jitter rng,
  /// relay queue rngs, measurement-apparatus rngs) to a deterministic
  /// function of the seed; fingerprints, sessions and topology stay put.
  /// Required in deterministic mode, unused otherwise.
  std::function<void(std::uint64_t)> reseed{};
  /// The directory's live view of the network, if the world has one. When
  /// set, a churned-relay failure is re-resolved against it before the pair
  /// is requeued (the relay's descriptor, if it rejoined, is re-injected
  /// into the pool's onion proxies), and relays absent from it at scan
  /// start are treated as permanently unknown. When null, the engine falls
  /// back to the first measurer's consensus snapshot for the never-known
  /// distinction and churned pairs retry without re-resolution.
  const dir::Consensus* live_consensus = nullptr;
  /// Fault plan active in this world (already installed); its events that
  /// fire inside the scan window are copied into ScanReport::fault_events.
  const simnet::FaultPlan* fault_plan = nullptr;
};

/// The world-reseed value for a pair: a well-mixed function of the master
/// seed and both fingerprints, commutative in (x, y).
std::uint64_t pair_reseed(std::uint64_t pair_seed, const dir::Fingerprint& x,
                          const dir::Fingerprint& y);

/// The world-reseed value for a single half circuit C_x: a function of the
/// master seed and x alone (distinct domain from pair_reseed), so R_Cx is a
/// pure per-relay quantity the deterministic driver can memoize without
/// breaking bit-identity across world counts.
std::uint64_t half_reseed(std::uint64_t pair_seed, const dir::Fingerprint& x);

/// A pair that exhausted its attempts (or failed permanently), with the
/// classification and message of its final failure.
struct FailedPair {
  dir::Fingerprint a, b;
  ErrorClass error_class = ErrorClass::kTransient;
  std::string error;
};

/// A pair held back because a quarantined-terminal relay touches it. Not a
/// failure — the pair was never probed this scan; a future scan (or
/// --resume) retries it.
struct DeferredPair {
  dir::Fingerprint a, b;
  dir::Fingerprint relay;  ///< the quarantined relay the deferral is due to
};

/// The outcome of a scan. Counters sum across worlds; max_in_flight sums
/// too (the worlds really run at once) while max_per_relay_in_flight and
/// virtual_time take the max; the pair and event lists are sorted, so the
/// report does not depend on the world count.
struct ScanReport {
  std::size_t pairs_total = 0;
  std::size_t measured = 0;      ///< freshly measured this scan
  std::size_t from_cache = 0;    ///< satisfied by a fresh cache entry
  std::size_t failed = 0;        ///< exhausted attempts
  std::vector<FailedPair> failed_pairs;
  // Per-class failure counters; they always sum to `failed`.
  std::size_t failed_transient = 0;
  std::size_t failed_permanent = 0;
  std::size_t failed_churned = 0;
  /// Churned pairs whose relays were found again in the live consensus and
  /// re-injected into the measurement hosts before requeueing.
  std::size_t churn_reresolved = 0;
  /// Pairs deferred because a relay's circuit breaker went terminal (see
  /// quarantine.h). measured + from_cache + failed + deferred +
  /// interrupted_pairs == pairs_total.
  std::size_t deferred = 0;
  std::vector<DeferredPair> deferred_pairs;
  /// Every breaker transition (window opened/re-opened, terminal).
  std::vector<QuarantineEvent> quarantine_events;
  /// Probation probes allowed through an expired quarantine window.
  std::size_t probation_probes = 0;
  /// Graceful shutdown: the stop flag fired mid-scan. interrupted_pairs
  /// counts the pairs never resolved (not probed, or abandoned mid-retry);
  /// they are retried by --resume.
  bool interrupted = false;
  std::size_t interrupted_pairs = 0;
  /// Fault-plan events that fired during the scan window (annotation only).
  std::vector<simnet::FaultPlan::Event> fault_events;
  Duration virtual_time;         ///< simulated time the scan took

  // ---- engine statistics ----------------------------------------------------
  /// Virtual time spent building circuits / echo-sampling, summed across all
  /// attempted pair measurements (so with K in flight these can exceed
  /// virtual_time).
  Duration time_building;
  Duration time_sampling;
  /// High-water mark of concurrently running pair measurements.
  std::size_t max_in_flight = 0;
  /// High-water mark of concurrent pair measurements touching any single
  /// target relay — the admission policy guarantees this never exceeds the
  /// configured per-relay cap.
  std::size_t max_per_relay_in_flight = 0;
  /// Total re-dispatches after a failed attempt.
  std::size_t retries = 0;
  /// retry_histogram[k] = pairs that finished (either way) after k retries;
  /// size is attempts_per_pair (index 0 = succeeded or failed first try).
  std::vector<std::size_t> retry_histogram;

  // ---- optimization observability ------------------------------------------
  /// EXTENDCIRCUIT launches across all attempts (a cold pair costs 3; a pair
  /// with both halves memoized costs 1).
  std::size_t circuits_built = 0;
  /// C_x/C_y probes satisfied from the half-circuit cache.
  std::size_t half_cache_hits = 0;
  /// Echo samples the adaptive early-stop avoided, summed over all probes.
  std::size_t samples_saved = 0;
  /// World reseeds performed in deterministic mode (one per pair plus one
  /// per non-memoized half probe).
  std::size_t reseeds = 0;
};

/// Progress callback: (pairs done, pairs total, last pair's result). With
/// W > 1 worlds it is invoked under a mutex, with counts aggregated across
/// worlds, in completion order.
using ScanProgress =
    std::function<void(std::size_t, std::size_t, const PairResult&)>;

class ParallelScanner {
 public:
  /// Index pairs into a `nodes` vector: (i, j) with i != j.
  using PairList = std::vector<std::pair<std::size_t, std::size_t>>;

  /// Drive `worlds` (W >= 1); results are merged into `cache`.
  ParallelScanner(std::vector<ScanWorld> worlds, RttMatrix& cache);
  /// One world without hooks: a pool of measurers sharing one event loop.
  ParallelScanner(std::vector<TingMeasurer*> measurers, RttMatrix& cache);

  /// Measure all unordered pairs of `nodes` (blocking; pumps the worlds'
  /// event loops until every pair has succeeded, exhausted its attempts,
  /// been deferred, or been served from cache).
  ScanReport scan(const std::vector<dir::Fingerprint>& nodes,
                  const ScanOptions& options = {},
                  const ScanProgress& progress = {});

  /// Measure an explicit pair worklist (the scan daemon hands over each
  /// epoch's delta plan). Same partitioning, merge and determinism rules as
  /// scan(), which is this method over the full all-pairs list. A world's
  /// exception is rethrown after every worker has joined.
  ScanReport scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                        const PairList& pairs, const ScanOptions& options = {},
                        const ScanProgress& progress = {});

  RttMatrix& cache() { return cache_; }

 private:
  std::vector<ScanWorld> worlds_;
  RttMatrix& cache_;
};

}  // namespace ting::meas
