#include "ting/scheduler.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <tuple>

#include "ting/half_circuit_cache.h"
#include "ting/scan_journal.h"
#include "util/log.h"
#include "util/rng.h"

namespace ting::meas {

namespace {

using PairList = ParallelScanner::PairList;
using Reseed = std::function<void(std::uint64_t)>;

/// Fold a fingerprint into a well-mixed 64-bit value (order-sensitive over
/// its bytes, so distinct fingerprints rarely collide).
std::uint64_t fp_mix(const dir::Fingerprint& fp) {
  std::uint64_t v = 0x243F6A8885A308D3ULL;
  for (std::uint8_t b : fp.bytes()) v = mix64(v ^ b);
  return v;
}

/// Let in-flight teardown traffic from the previous pair finish without
/// fast-forwarding to far-future scheduled work (fault windows): execute
/// events only while the next one lies within `horizon` of virtual now.
void drain_in_flight(simnet::EventLoop& loop, Duration horizon) {
  while (const auto next = loop.next_event_time()) {
    if (*next > loop.now() + horizon) break;
    loop.run_one();
  }
}

constexpr Duration kDrainHorizon = Duration::seconds(60);

/// Snapshot of which scan nodes the directory knows at scan start. A
/// churned-classified failure for a relay that was never known upgrades to
/// permanent: there is no consensus entry to wait for.
std::set<dir::Fingerprint> never_known_nodes(
    const std::vector<dir::Fingerprint>& nodes,
    const dir::Consensus& reference) {
  std::set<dir::Fingerprint> out;
  for (const dir::Fingerprint& fp : nodes)
    if (reference.find(fp) == nullptr) out.insert(fp);
  return out;
}

/// Re-resolve a churned pair against the live consensus: re-inject the
/// descriptors of x and y into every pool measurer that lost them, and drop
/// both relays' half-circuit cache entries — a relay that left and rejoined
/// may have moved, so its memoized minima are suspect. Returns true if both
/// relays are resolvable again (descriptor present or re-injected
/// everywhere).
bool reresolve_pair(const dir::Consensus* live,
                    const std::vector<TingMeasurer*>& measurers,
                    const dir::Fingerprint& x, const dir::Fingerprint& y,
                    HalfCircuitCache* half_cache) {
  if (half_cache != nullptr) {
    half_cache->erase_relay(x);
    half_cache->erase_relay(y);
  }
  if (live == nullptr) return false;
  bool both = true;
  for (const dir::Fingerprint* fp : {&x, &y}) {
    const dir::RelayDescriptor* desc = live->find(*fp);
    if (desc == nullptr) {
      both = false;
      continue;
    }
    for (TingMeasurer* m : measurers)
      if (m->host().op().consensus().find(*fp) == nullptr)
        m->host().op().add_descriptor(*desc);
  }
  return both;
}

/// Sum one attempted pair measurement's engine statistics into the report.
void accumulate_pair_stats(ScanReport& report, const PairResult& r) {
  report.time_building += r.build_time();
  report.time_sampling += r.sample_time();
  report.circuits_built += static_cast<std::size_t>(r.circuits_built());
  report.half_cache_hits += static_cast<std::size_t>(r.half_cache_hits());
  report.samples_saved += static_cast<std::size_t>(r.samples_saved());
}

/// Attach a half-circuit cache to every pool measurer for the scan's
/// duration; detaching (and dropping leftover prebuilt circuits) on the way
/// out keeps the measurers reusable outside the scan.
class MeasurerScanScope {
 public:
  MeasurerScanScope(const std::vector<TingMeasurer*>& measurers,
                    HalfCircuitCache* cache)
      : measurers_(measurers) {
    if (cache != nullptr)
      for (TingMeasurer* m : measurers_) m->set_half_cache(cache);
  }
  ~MeasurerScanScope() {
    for (TingMeasurer* m : measurers_) {
      m->set_half_cache(nullptr);
      m->discard_prebuilts();
    }
  }

 private:
  const std::vector<TingMeasurer*>& measurers_;
};

/// Whether the cache can serve pair (x, y) without a measurement. max_age 0
/// means "remeasure all": RttMatrix::is_fresh is inclusive, so a pair
/// stamped at the current virtual instant would otherwise count as fresh.
bool served_from_cache(const RttMatrix& cache, const ScanOptions& options,
                       const dir::Fingerprint& x, const dir::Fingerprint& y,
                       TimePoint now) {
  return options.max_age > Duration{} &&
         cache.is_fresh(x, y, now, options.max_age);
}

/// The result a progress callback sees for a cache hit: ok, flagged
/// from_cache, carrying the cached estimate.
PairResult cached_result(const RttMatrix& cache, const dir::Fingerprint& x,
                         const dir::Fingerprint& y) {
  PairResult r;
  r.x = x;
  r.y = y;
  r.ok = true;
  r.from_cache = true;
  if (const auto rtt = cache.rtt(x, y)) r.rtt_ms = *rtt;
  return r;
}

void count_failure(ScanReport& report, ErrorClass cls) {
  ++report.failed;
  switch (cls) {
    case ErrorClass::kPermanent: ++report.failed_permanent; break;
    case ErrorClass::kRelayChurned: ++report.failed_churned; break;
    default: ++report.failed_transient; break;
  }
}

void annotate_fault_events(ScanReport& report, const simnet::FaultPlan* plan,
                           TimePoint started, TimePoint ended) {
  if (plan == nullptr) return;
  for (const simnet::FaultPlan::Event& e : plan->events())
    if (e.at >= started && e.at <= ended) report.fault_events.push_back(e);
}

// ---- crash safety & graceful degradation helpers ----------------------------

bool stop_requested(const ScanOptions& options) {
  return options.stop != nullptr &&
         options.stop->load(std::memory_order_relaxed);
}

/// Append one terminally-resolved pair to the write-ahead journal (no-op
/// without one). `measured_at` must equal the timestamp the engine stored in
/// the matrix, so a resume rebuilds identical entries.
void journal_pair(const ScanOptions& options, const dir::Fingerprint& x,
                  const dir::Fingerprint& y, const PairResult& r, int attempts,
                  ErrorClass cls, TimePoint measured_at) {
  if (options.journal == nullptr) return;
  ScanJournal::PairRecord rec;
  rec.a = x;
  rec.b = y;
  rec.ok = r.ok;
  rec.attempts = attempts;
  rec.error_class = r.ok ? ErrorClass::kNone : cls;
  rec.rtt_ms = r.ok ? r.rtt_ms : 0.0;
  rec.measured_at = measured_at;
  rec.samples = r.cxy.samples_taken;
  rec.error = r.error;
  options.journal->record_pair(rec);
}

/// What the quarantine breaker says about probing pair (x, y) right now.
struct QuarantineGate {
  enum class Verdict {
    kProceed,  ///< both relays probe-able
    kHold,     ///< a relay is inside a cooldown window; park the pair
    kDefer,    ///< a relay is terminal; resolve the pair as deferred
  };
  Verdict verdict = Verdict::kProceed;
  dir::Fingerprint culprit;  ///< the terminal relay (kDefer)
  bool probation = false;    ///< this probe tests an expired window
};

QuarantineGate quarantine_gate(const RelayQuarantine& q,
                               const ScanOptions& options,
                               const dir::Fingerprint& x,
                               const dir::Fingerprint& y, TimePoint now) {
  QuarantineGate g;
  if (!options.quarantine.enabled) return g;
  for (const dir::Fingerprint* fp : {&x, &y}) {
    switch (q.state(*fp, now)) {
      case RelayQuarantine::State::kTerminal:
        g.verdict = QuarantineGate::Verdict::kDefer;
        g.culprit = *fp;
        return g;
      case RelayQuarantine::State::kQuarantined:
        g.verdict = QuarantineGate::Verdict::kHold;
        break;
      case RelayQuarantine::State::kProbation:
        g.probation = true;
        break;
      case RelayQuarantine::State::kClear:
        break;
    }
  }
  return g;
}

/// Charge a pair's permanent failure to the relays the scan can actually
/// blame: endpoints the directory never knew are definite culprits;
/// otherwise both endpoints share the charge (successes reset the counter,
/// so a healthy relay paired with a sick one doesn't accumulate). New
/// breaker transitions are appended to the report (and journal) and
/// returned so the caller can schedule window-expiry wake-ups.
std::vector<QuarantineEvent> charge_permanent(
    RelayQuarantine& q, ScanReport& report, const ScanOptions& options,
    const dir::Fingerprint& x, const dir::Fingerprint& y,
    const std::set<dir::Fingerprint>& never_known, TimePoint now) {
  if (!options.quarantine.enabled) return {};
  const std::size_t before = q.events().size();
  bool charged = false;
  for (const dir::Fingerprint* fp : {&x, &y}) {
    if (never_known.contains(*fp)) {
      q.on_permanent_failure(*fp, now);
      charged = true;
    }
  }
  if (!charged) {
    q.on_permanent_failure(x, now);
    q.on_permanent_failure(y, now);
  }
  std::vector<QuarantineEvent> fresh(q.events().begin() + static_cast<long>(before),
                                     q.events().end());
  for (const QuarantineEvent& ev : fresh) {
    TING_WARN("scan: relay " << ev.relay.short_name()
                             << (ev.terminal
                                     ? " written off (quarantine budget spent)"
                                     : " quarantined")
                             << " after " << ev.failures
                             << " consecutive permanent failures");
    report.quarantine_events.push_back(ev);
    if (options.journal != nullptr)
      options.journal->record_quarantine(ScanJournal::QuarantineRecord{
          ev.relay, ev.at, ev.until, ev.failures, ev.terminal});
  }
  return fresh;
}

void clear_quarantine(RelayQuarantine& q, const ScanOptions& options,
                      const dir::Fingerprint& x, const dir::Fingerprint& y) {
  if (!options.quarantine.enabled) return;
  q.on_success(x);
  q.on_success(y);
}

/// The result a progress callback sees for a deferred pair.
PairResult deferred_result(const dir::Fingerprint& x, const dir::Fingerprint& y,
                           const dir::Fingerprint& culprit) {
  PairResult r;
  r.x = x;
  r.y = y;
  r.deferred = true;
  r.error = "deferred: relay " + culprit.short_name() + " quarantined";
  return r;
}

/// Deterministic-mode pair measurement with half-circuit memoization. The
/// pair is decomposed into its three circuit probes, each run under its own
/// world reseed: C_xy under pair_reseed(seed, x, y), C_x under
/// half_reseed(seed, x), C_y under half_reseed(seed, y). That makes R_Cx a
/// pure function of (world seed, pair_seed, x) — a memoized entry holds
/// exactly the value a fresh probe would measure, so cache hits cannot
/// perturb the merged CSV and bit-identity holds for any world count.
PairResult measure_pair_memoized(TingMeasurer& m, HalfCircuitCache& cache,
                                 std::uint64_t pair_seed, const Reseed& reseed,
                                 const dir::Fingerprint& x,
                                 const dir::Fingerprint& y) {
  MeasurementHost& host = m.host();
  simnet::EventLoop& loop = host.loop();
  PairResult r;
  r.x = x;
  r.y = y;
  const TimePoint started = loop.now();

  // Mirror measure_async's validity screens.
  if (x == y || x == host.w_fp() || y == host.w_fp() || x == host.z_fp() ||
      y == host.z_fp()) {
    r.error = "invalid pair (x, y must be distinct remote relays)";
    r.error_class = ErrorClass::kPermanent;
    return r;
  }
  for (const dir::Fingerprint* fp : {&x, &y}) {
    if (host.op().consensus().find(*fp) == nullptr) {
      r.error = "relay " + fp->short_name() + " not in consensus";
      r.error_class = ErrorClass::kRelayChurned;
      return r;
    }
  }

  reseed(pair_reseed(pair_seed, x, y));
  r.cxy = m.measure_circuit_blocking({x, y}, m.config().samples);
  if (!r.cxy.ok) {
    r.error = "C_xy: " + r.cxy.error;
    r.error_class = m.classify_failure(x, y, r.cxy.error_class);
    r.wall_time = loop.now() - started;
    return r;
  }

  const auto half = [&](const dir::Fingerprint& fp) {
    if (const HalfCircuitCache::Entry* e =
            cache.fresh(host.w_fp(), fp, loop.now())) {
      CircuitMeasurement out;
      out.ok = true;
      out.memoized = true;
      out.min_rtt_ms = e->rtt_ms;
      out.samples_taken = e->samples;
      return out;
    }
    drain_in_flight(loop, kDrainHorizon);
    reseed(half_reseed(pair_seed, fp));
    // Full sampling for cache-bound halves (see TingMeasurer::half_probe):
    // the stored minimum is reused across every pair sharing this relay.
    CircuitMeasurement out = m.measure_circuit_blocking(
        {fp}, m.config().samples, /*adaptive=*/false);
    // Zero timestamp, like the matrix entries: worlds run unrelated
    // virtual clocks, and clock-free entries keep the merged cache CSV
    // independent of the world count.
    if (out.ok)
      cache.store(host.w_fp(), fp, out.min_rtt_ms, TimePoint{},
                  out.samples_taken);
    return out;
  };

  r.cx = half(x);
  if (!r.cx.ok) {
    r.error = "C_x: " + r.cx.error;
    r.error_class = m.classify_failure(x, y, r.cx.error_class);
    r.wall_time = loop.now() - started;
    return r;
  }
  r.cy = half(y);
  r.wall_time = loop.now() - started;
  if (!r.cy.ok) {
    r.error = "C_y: " + r.cy.error;
    r.error_class = m.classify_failure(x, y, r.cy.error_class);
    return r;
  }
  // Eq. (4): R(x,y) + F_x + F_y — identical cancellation whether the half
  // minima were measured now or memoized.
  r.rtt_ms = r.cxy.min_rtt_ms - 0.5 * r.cx.min_rtt_ms - 0.5 * r.cy.min_rtt_ms;
  r.ok = true;
  return r;
}

/// One deterministic attempt at pair (x, y).
PairResult measure_deterministic(TingMeasurer& m, const ScanOptions& options,
                                 const Reseed& reseed,
                                 const dir::Fingerprint& x,
                                 const dir::Fingerprint& y) {
  // Teardown cells from the previous pair must not consume draws from the
  // freshly-seeded rngs, so quiesce the loop before reseeding.
  drain_in_flight(m.host().loop(), kDrainHorizon);
  if (options.half_cache != nullptr)
    return measure_pair_memoized(m, *options.half_cache, options.pair_seed,
                                 reseed, x, y);
  reseed(pair_reseed(options.pair_seed, x, y));
  return m.measure_blocking(x, y);
}

/// The deterministic driver: pairs strictly one at a time on the world's
/// first measurer (its other hosts carry world-specific fingerprints and
/// seeds, so touching them would make results depend on pool size),
/// through the cache check, quarantine gate, retry policy (per-class, like
/// the pool), journaling, and graceful-stop handling. Matrix and journal
/// entries are stamped zero because worlds run unrelated virtual clocks,
/// and pipelining stays off — a circuit built under the previous pair's
/// world seed would break per-pair purity.
///
/// Quarantine-held pairs are parked in a side list; when the live worklist
/// drains, the driver fast-forwards virtual time to the earliest window
/// expiry and requeues them — probation probes then decide between clearing
/// the breaker and walking it to terminal, at which point remaining pairs
/// resolve as deferred. Every round either resolves a pair or advances a
/// breaker window, so the loop terminates.
void serial_scan_pairs(const ScanWorld& world, const Reseed& reseed,
                       RttMatrix& cache,
                       const std::vector<dir::Fingerprint>& nodes,
                       std::deque<std::pair<std::size_t, std::size_t>> work,
                       const ScanOptions& options,
                       const ScanProgress& progress, ScanReport& report,
                       const std::set<dir::Fingerprint>& never_known) {
  TingMeasurer& m = *world.measurers[0];
  simnet::EventLoop& loop = m.host().loop();
  RelayQuarantine quarantine(options.quarantine);
  std::vector<std::pair<std::size_t, std::size_t>> held;
  std::size_t done = 0;

  while (!work.empty()) {
    if (stop_requested(options)) break;
    const auto [i, j] = work.front();
    work.pop_front();
    const dir::Fingerprint& x = nodes[i];
    const dir::Fingerprint& y = nodes[j];

    if (served_from_cache(cache, options, x, y, loop.now())) {
      ++done;
      ++report.from_cache;
      if (progress)
        progress(done, report.pairs_total, cached_result(cache, x, y));
    } else if (const QuarantineGate gate =
                   quarantine_gate(quarantine, options, x, y, loop.now());
               gate.verdict == QuarantineGate::Verdict::kDefer) {
      ++done;
      ++report.deferred;
      report.deferred_pairs.push_back(DeferredPair{x, y, gate.culprit});
      if (progress)
        progress(done, report.pairs_total, deferred_result(x, y, gate.culprit));
    } else if (gate.verdict == QuarantineGate::Verdict::kHold) {
      held.emplace_back(i, j);
    } else {
      if (gate.probation) ++report.probation_probes;
      // One measurement actually in flight (cache-only scans report 0).
      report.max_in_flight = 1;
      report.max_per_relay_in_flight = 1;
      for (int attempt = 0;; ++attempt) {
        if (attempt > 0) {
          // A stop request between attempts abandons the pair (it counts as
          // interrupted and --resume retries it).
          if (stop_requested(options)) break;
          ++report.retries;
        }
        const PairResult r = measure_deterministic(m, options, reseed, x, y);
        accumulate_pair_stats(report, r);
        const TimePoint stamp{};
        if (r.ok) {
          cache.set(x, y, r.rtt_ms, stamp, r.cxy.samples_taken);
          ++report.measured;
          ++report.retry_histogram[static_cast<std::size_t>(attempt)];
          ++done;
          journal_pair(options, x, y, r, attempt + 1, ErrorClass::kNone, stamp);
          clear_quarantine(quarantine, options, x, y);
          if (progress) progress(done, report.pairs_total, r);
          break;
        }
        ErrorClass cls = r.error_class == ErrorClass::kNone
                             ? ErrorClass::kTransient
                             : r.error_class;
        if (cls == ErrorClass::kRelayChurned &&
            (never_known.contains(x) || never_known.contains(y)))
          cls = ErrorClass::kPermanent;
        // Permanents get no further attempts; everything else retries until
        // the budget is exhausted.
        if (cls == ErrorClass::kPermanent ||
            attempt + 1 >= options.attempts_per_pair) {
          TING_WARN("scan: pair " << x.short_name() << "," << y.short_name()
                                  << " failed (" << to_string(cls)
                                  << "): " << r.error);
          count_failure(report, cls);
          report.failed_pairs.push_back(FailedPair{x, y, cls, r.error});
          ++report.retry_histogram[static_cast<std::size_t>(attempt)];
          ++done;
          journal_pair(options, x, y, r, attempt + 1, cls, stamp);
          if (cls == ErrorClass::kPermanent)
            charge_permanent(quarantine, report, options, x, y, never_known,
                             loop.now());
          if (progress) progress(done, report.pairs_total, r);
          break;
        }
        if (cls == ErrorClass::kRelayChurned) {
          // Wait out a consensus interval, then pull the relay's descriptor
          // back in if it rejoined.
          loop.run_until(loop.now() + options.churn_requeue_delay);
          if (reresolve_pair(world.live_consensus, world.measurers, x, y,
                             options.half_cache))
            ++report.churn_reresolved;
        } else {
          // Transient: exponential backoff before re-attempting — a crashed
          // relay gets time to come back.
          Duration delay = options.retry_backoff_base;
          for (int k = 0; k < attempt; ++k)
            delay = delay * options.retry_backoff_factor;
          loop.run_until(loop.now() + delay);
        }
      }
    }

    // The live worklist drained but quarantined pairs are parked: advance
    // virtual time to the earliest window expiry and requeue them, so
    // probation probes can run (or terminal relays defer their pairs).
    if (work.empty() && !held.empty() && !stop_requested(options)) {
      TimePoint wake;
      bool any_quarantined = false;
      for (const auto& [hi, hj] : held) {
        for (const dir::Fingerprint* fp : {&nodes[hi], &nodes[hj]}) {
          if (quarantine.state(*fp, loop.now()) ==
              RelayQuarantine::State::kQuarantined) {
            const TimePoint rel = quarantine.release_at(*fp);
            if (!any_quarantined || rel < wake) wake = rel;
            any_quarantined = true;
          }
        }
      }
      if (any_quarantined && wake > loop.now()) loop.run_until(wake);
      for (const auto& h : held) work.push_back(h);
      held.clear();
    }
  }

  // Anything not terminally resolved (stop mid-scan) is interrupted; a
  // --resume retries it.
  report.interrupted_pairs = report.pairs_total - done;
  report.interrupted = report.interrupted_pairs > 0;
}

}  // namespace

std::uint64_t pair_reseed(std::uint64_t pair_seed, const dir::Fingerprint& x,
                          const dir::Fingerprint& y) {
  // XOR of the per-fingerprint folds makes the value commutative in (x, y),
  // so both orderings of a pair reseed the world identically.
  return mix64(pair_seed ^ fp_mix(x) ^ fp_mix(y));
}

std::uint64_t half_reseed(std::uint64_t pair_seed, const dir::Fingerprint& x) {
  // Double-mixing the fold keeps the half-circuit domain disjoint from
  // pair_reseed (where raw folds XOR together), so C_x never shares a world
  // seed with any pair's C_xy.
  return mix64(pair_seed ^ mix64(fp_mix(x)));
}

// ---- the pool ---------------------------------------------------------------

namespace {

/// The pool driver's state over one world: its K measurers keep up to K
/// pairs in flight on the world's event loop, admitted under the per-relay
/// cap, and failed pairs are re-queued with backoff before being reported.
struct ScanState {
  struct Task {
    std::size_t i = 0, j = 0;
    int attempt = 0;  ///< retries used so far
  };

  const ScanWorld* world = nullptr;
  RttMatrix* cache = nullptr;  ///< the world's private matrix
  const std::vector<dir::Fingerprint>* nodes = nullptr;
  ScanOptions options;
  ScanProgress progress;
  ScanReport report;

  static constexpr std::size_t kNoHint = static_cast<std::size_t>(-1);

  std::vector<Task> tasks;
  std::deque<std::size_t> ready;  ///< task indices awaiting a host + admission
  std::map<dir::Fingerprint, int> relay_in_flight;
  std::vector<bool> host_busy;
  /// Pipelining: host_hint[h] is the task whose C_xy circuit host h
  /// prebuilt while running its current measurement (kNoHint if none); pump
  /// prefers routing that task back to h so the prebuilt circuit is adopted.
  std::vector<std::size_t> host_hint;
  std::set<dir::Fingerprint> never_known;  ///< scan-start consensus snapshot
  std::size_t in_flight = 0;
  std::size_t outstanding = 0;  ///< tasks not yet terminally resolved
  std::size_t done = 0;         ///< resolved pairs, for progress reporting
  /// Per-relay circuit breaker; quarantine-held tasks simply stay in `ready`
  /// (inadmissible) until a scheduled wake at their window's expiry.
  RelayQuarantine quarantine;
  /// Graceful shutdown: once the stop flag is seen, no new dispatches happen
  /// and queued retries/ready tasks resolve as interrupted.
  bool stopping = false;
  /// Wake events scheduled at quarantine-window expiries; cancelled at scan
  /// end so none can fire against a dead ScanState.
  std::vector<simnet::EventId> wakes;
};

void pump(ScanState& st);
void dispatch(ScanState& st, std::size_t host, std::size_t task);
/// Terminal/retry resolution of one measurement. Always entered through a
/// deferred event, never directly from dispatch(): measure_async can fail
/// synchronously, and resolving inline would re-enter pump() once per
/// failing task (deep recursion on large scans).
void on_complete(ScanState& st, std::size_t host, std::size_t task,
                 PairResult r);
/// Resolve a task as deferred (a quarantined-terminal relay touches it).
void resolve_deferred(ScanState& st, std::size_t task,
                      const dir::Fingerprint& culprit);

void pump(ScanState& st) {
  simnet::EventLoop& loop = st.world->measurers[0]->host().loop();

  // Graceful shutdown: on the first stop sighting, everything still queued
  // resolves as interrupted (in-flight measurements drain via on_complete,
  // which also sees `stopping` and won't schedule retries).
  if (!st.stopping && stop_requested(st.options)) {
    st.stopping = true;
    st.report.interrupted_pairs += st.ready.size();
    st.outstanding -= st.ready.size();
    st.ready.clear();
  }
  if (st.stopping) return;

  // A terminal relay's tasks resolve as deferred the moment they surface.
  if (st.options.quarantine.enabled) {
    for (auto it = st.ready.begin(); it != st.ready.end();) {
      const ScanState::Task& task = st.tasks[*it];
      const QuarantineGate gate =
          quarantine_gate(st.quarantine, st.options, (*st.nodes)[task.i],
                          (*st.nodes)[task.j], loop.now());
      if (gate.verdict == QuarantineGate::Verdict::kDefer) {
        const std::size_t t = *it;
        it = st.ready.erase(it);
        resolve_deferred(st, t, gate.culprit);
      } else {
        ++it;
      }
    }
  }

  // Admission policy: a task may start only while both its target relays
  // are below the per-relay concurrency cap (and neither is inside a
  // quarantine window).
  const auto admissible = [&](std::size_t t) {
    const ScanState::Task& task = st.tasks[t];
    if (st.options.quarantine.enabled &&
        quarantine_gate(st.quarantine, st.options, (*st.nodes)[task.i],
                        (*st.nodes)[task.j], loop.now())
                .verdict != QuarantineGate::Verdict::kProceed)
      return false;
    const auto x_it = st.relay_in_flight.find((*st.nodes)[task.i]);
    const auto y_it = st.relay_in_flight.find((*st.nodes)[task.j]);
    return (x_it == st.relay_in_flight.end() ||
            x_it->second < st.options.per_relay_cap) &&
           (y_it == st.relay_in_flight.end() ||
            y_it->second < st.options.per_relay_cap);
  };
  for (std::size_t h = 0; h < st.world->measurers.size(); ++h) {
    if (st.host_busy[h]) continue;
    // Prefer the task this host prebuilt a circuit for, so the pipeline's
    // EXTENDCIRCUIT work is adopted instead of wasted.
    auto it = st.ready.end();
    if (st.host_hint[h] != ScanState::kNoHint) {
      it = std::find(st.ready.begin(), st.ready.end(), st.host_hint[h]);
      if (it != st.ready.end() && !admissible(*it)) it = st.ready.end();
      st.host_hint[h] = ScanState::kNoHint;
    }
    if (it == st.ready.end())
      it = std::find_if(st.ready.begin(), st.ready.end(), admissible);
    if (it == st.ready.end()) return;  // nothing admissible for any host
    const std::size_t t = *it;
    st.ready.erase(it);
    dispatch(st, h, t);
  }
}

void resolve_deferred(ScanState& st, std::size_t t,
                      const dir::Fingerprint& culprit) {
  const ScanState::Task& task = st.tasks[t];
  const dir::Fingerprint& x = (*st.nodes)[task.i];
  const dir::Fingerprint& y = (*st.nodes)[task.j];
  ++st.report.deferred;
  st.report.deferred_pairs.push_back(DeferredPair{x, y, culprit});
  ++st.done;
  --st.outstanding;
  if (st.progress)
    st.progress(st.done, st.report.pairs_total, deferred_result(x, y, culprit));
}

void dispatch(ScanState& st, std::size_t host, std::size_t t) {
  const ScanState::Task& task = st.tasks[t];
  const dir::Fingerprint& x = (*st.nodes)[task.i];
  const dir::Fingerprint& y = (*st.nodes)[task.j];

  if (st.options.quarantine.enabled &&
      quarantine_gate(st.quarantine, st.options, x, y,
                      st.world->measurers[host]->host().loop().now())
          .probation)
    ++st.report.probation_probes;

  st.host_busy[host] = true;
  ++st.in_flight;
  const int nx = ++st.relay_in_flight[x];
  const int ny = ++st.relay_in_flight[y];
  st.report.max_in_flight = std::max(st.report.max_in_flight, st.in_flight);
  st.report.max_per_relay_in_flight =
      std::max(st.report.max_per_relay_in_flight,
               static_cast<std::size_t>(std::max(nx, ny)));

  // &st stays valid for the callback's lifetime: the scan blocks until every
  // dispatched measurement and scheduled retry has resolved. Completion is
  // deferred through the loop because measure_async can fail synchronously
  // (invalid pair, relay missing from the consensus) — resolving inline
  // would re-enter pump() from inside dispatch(), recursing once per
  // failing task.
  TingMeasurer& m = *st.world->measurers[host];
  m.measure_async(x, y, [&st, &m, host, t](PairResult r) {
    m.host().loop().defer([&st, host, t, r = std::move(r)]() mutable {
      on_complete(st, host, t, std::move(r));
    });
  });

  // Pipelining: while this measurement samples, prebuild the C_xy circuit
  // of a queued task on the same host, and hint pump to route that task
  // back here. Tasks already hinted to another host are skipped so two
  // hosts never prebuild the same pair.
  if (st.options.pipeline_builds) {
    for (const std::size_t t2 : st.ready) {
      if (std::find(st.host_hint.begin(), st.host_hint.end(), t2) !=
          st.host_hint.end())
        continue;
      const ScanState::Task& next = st.tasks[t2];
      m.prebuild((*st.nodes)[next.i], (*st.nodes)[next.j]);
      st.host_hint[host] = t2;
      break;
    }
  }
}

void on_complete(ScanState& st, std::size_t host, std::size_t t,
                 PairResult r) {
  ScanState::Task& task = st.tasks[t];
  const dir::Fingerprint& x = (*st.nodes)[task.i];
  const dir::Fingerprint& y = (*st.nodes)[task.j];
  simnet::EventLoop& loop = st.world->measurers[host]->host().loop();

  st.host_busy[host] = false;
  --st.in_flight;
  if (--st.relay_in_flight[x] == 0) st.relay_in_flight.erase(x);
  if (--st.relay_in_flight[y] == 0) st.relay_in_flight.erase(y);
  accumulate_pair_stats(st.report, r);

  ErrorClass cls = ErrorClass::kNone;
  if (!r.ok) {
    cls = r.error_class == ErrorClass::kNone ? ErrorClass::kTransient
                                             : r.error_class;
    if (cls == ErrorClass::kRelayChurned &&
        (st.never_known.contains(x) || st.never_known.contains(y)))
      cls = ErrorClass::kPermanent;
  }

  if (r.ok) {
    st.cache->set(x, y, r.rtt_ms, loop.now(), r.cxy.samples_taken);
    ++st.report.measured;
    ++st.report.retry_histogram[static_cast<std::size_t>(task.attempt)];
    ++st.done;
    --st.outstanding;
    journal_pair(st.options, x, y, r, task.attempt + 1, ErrorClass::kNone,
                 loop.now());
    clear_quarantine(st.quarantine, st.options, x, y);
    if (st.progress) st.progress(st.done, st.report.pairs_total, r);
  } else if (st.stopping) {
    // Shutdown drain: the measurement finished after the stop flag fired;
    // don't retry or fail it — --resume re-attempts the pair.
    ++st.report.interrupted_pairs;
    --st.outstanding;
  } else if (cls != ErrorClass::kPermanent &&
             task.attempt + 1 < st.options.attempts_per_pair) {
    ++task.attempt;
    ++st.report.retries;
    Duration delay;
    if (cls == ErrorClass::kRelayChurned) {
      // A churned relay needs a fresh consensus, not backoff: wait one
      // requeue interval, re-resolve, and try again.
      delay = st.options.churn_requeue_delay;
    } else {
      // Exponential backoff before re-queueing: transient causes (circuit
      // build races, congested relays) deserve breathing room, and backoff
      // keeps a flapping relay from monopolising admission slots.
      delay = st.options.retry_backoff_base;
      for (int k = 1; k < task.attempt; ++k)
        delay = delay * st.options.retry_backoff_factor;
    }
    TING_DEBUG("scan: pair " << x.short_name() << "," << y.short_name()
                             << " failed (" << to_string(cls) << ": "
                             << r.error << "), retry " << task.attempt
                             << " in " << delay.str());
    const bool churned = cls == ErrorClass::kRelayChurned;
    loop.schedule(delay, [&st, t, churned]() {
      if (st.stopping) {
        // The pair was abandoned mid-retry; --resume re-attempts it.
        ++st.report.interrupted_pairs;
        --st.outstanding;
        return;
      }
      if (churned) {
        const ScanState::Task& task = st.tasks[t];
        if (reresolve_pair(st.world->live_consensus, st.world->measurers,
                           (*st.nodes)[task.i], (*st.nodes)[task.j],
                           st.options.half_cache))
          ++st.report.churn_reresolved;
      }
      st.ready.push_back(t);
      pump(st);
    });
  } else {
    TING_WARN("scan: pair " << x.short_name() << "," << y.short_name()
                            << " failed (" << to_string(cls)
                            << "): " << r.error);
    count_failure(st.report, cls);
    st.report.failed_pairs.push_back(FailedPair{x, y, cls, r.error});
    ++st.report.retry_histogram[static_cast<std::size_t>(task.attempt)];
    ++st.done;
    --st.outstanding;
    journal_pair(st.options, x, y, r, task.attempt + 1, cls, loop.now());
    if (cls == ErrorClass::kPermanent) {
      // New quarantine windows get a wake at their expiry so held tasks in
      // `ready` are re-examined even when nothing else is scheduled.
      for (const QuarantineEvent& ev :
           charge_permanent(st.quarantine, st.report, st.options, x, y,
                            st.never_known, loop.now())) {
        if (!ev.terminal)
          st.wakes.push_back(
              loop.schedule_at(ev.until, [&st]() { pump(st); }));
      }
    }
    if (st.progress) st.progress(st.done, st.report.pairs_total, r);
  }
  pump(st);
}

/// Scan one world's slice with the pool, into `cache` (the world's private
/// matrix).
ScanReport pool_scan_pairs(const ScanWorld& world, RttMatrix& cache,
                           const std::vector<dir::Fingerprint>& nodes,
                           const PairList& pairs, const ScanOptions& options,
                           const ScanProgress& progress) {
  simnet::EventLoop& loop = world.measurers[0]->host().loop();
  const TimePoint started = loop.now();
  const MeasurerScanScope scope(world.measurers, options.half_cache);

  ScanState st;
  st.world = &world;
  st.cache = &cache;
  st.nodes = &nodes;
  st.options = options;
  st.progress = progress;
  st.quarantine = RelayQuarantine(options.quarantine);
  st.report.retry_histogram.assign(
      static_cast<std::size_t>(options.attempts_per_pair), 0);
  st.host_busy.assign(world.measurers.size(), false);
  st.host_hint.assign(world.measurers.size(), ScanState::kNoHint);
  st.never_known = never_known_nodes(
      nodes, world.live_consensus != nullptr
                 ? *world.live_consensus
                 : world.measurers[0]->host().op().consensus());
  st.report.pairs_total = pairs.size();

  for (const auto& [i, j] : pairs) {
    if (served_from_cache(cache, options, nodes[i], nodes[j], loop.now())) {
      ++st.report.from_cache;
      ++st.done;
      if (progress)
        progress(st.done, st.report.pairs_total,
                 cached_result(cache, nodes[i], nodes[j]));
      continue;
    }
    st.tasks.push_back(ScanState::Task{i, j, 0});
  }
  if (options.randomize_order) {
    Rng rng(options.order_seed);
    rng.shuffle(st.tasks);
  }
  for (std::size_t t = 0; t < st.tasks.size(); ++t) st.ready.push_back(t);
  st.outstanding = st.tasks.size();

  pump(st);
  if (st.outstanding > 0) {
    // Every dispatched measurement has an internal deadline, every retry a
    // bounded backoff, and every quarantine window a scheduled wake, so the
    // scan always terminates; the timeout here is a generous safety net
    // against engine bugs.
    const bool ok = loop.run_while_waiting_for(
        [&]() { return st.outstanding == 0; },
        Duration::seconds(365LL * 24 * 3600));
    if (!ok) {
      // Count how much of the backlog is quarantine-held — the most likely
      // stall cause worth distinguishing in the diagnostic.
      std::size_t held = 0;
      for (const std::size_t t : st.ready) {
        const ScanState::Task& task = st.tasks[t];
        if (quarantine_gate(st.quarantine, st.options, (*st.nodes)[task.i],
                            (*st.nodes)[task.j], loop.now())
                .verdict == QuarantineGate::Verdict::kHold)
          ++held;
      }
      TING_CHECK_MSG(ok, "parallel scan stalled (event queue drained or "
                         "safety timeout hit): "
                             << st.outstanding << " pairs outstanding, "
                             << st.in_flight << " in flight, "
                             << st.ready.size() << " ready (" << held
                             << " quarantine-held)");
    }
  }

  // Quarantine wakes still pending reference &st; cancel them before it
  // goes out of scope (an interrupted scan can return with wakes queued).
  for (const simnet::EventId id : st.wakes) loop.cancel(id);
  st.report.interrupted = st.report.interrupted_pairs > 0;

  st.report.virtual_time = loop.now() - started;
  annotate_fault_events(st.report, world.fault_plan, started, loop.now());
  return st.report;
}

/// Scan one world's slice with the deterministic driver, into `cache`.
/// Before every attempt the world's stochastic state is reset to a pure
/// function of (pair_seed, x, y), which makes each pair's estimate
/// independent of scan order and world partitioning.
ScanReport deterministic_scan_pairs(const ScanWorld& world, RttMatrix& cache,
                                    const std::vector<dir::Fingerprint>& nodes,
                                    const PairList& pairs,
                                    const ScanOptions& options,
                                    const ScanProgress& progress) {
  simnet::EventLoop& loop = world.measurers[0]->host().loop();
  const TimePoint started = loop.now();

  ScanReport report;
  report.retry_histogram.assign(
      static_cast<std::size_t>(options.attempts_per_pair), 0);
  report.pairs_total = pairs.size();
  const std::set<dir::Fingerprint> never_known = never_known_nodes(
      nodes, world.live_consensus != nullptr
                 ? *world.live_consensus
                 : world.measurers[0]->host().op().consensus());

  PairList order = pairs;
  if (options.randomize_order) {
    Rng rng(options.order_seed);
    rng.shuffle(order);
  }

  // Count every world reseed (per pair + per non-memoized half probe) into
  // the report, without the reseed paths having to know about it.
  const Reseed reseed = [&report, &world](std::uint64_t seed) {
    ++report.reseeds;
    world.reseed(seed);
  };

  serial_scan_pairs(
      world, reseed, cache, nodes,
      std::deque<std::pair<std::size_t, std::size_t>>(order.begin(),
                                                      order.end()),
      options, progress, report, never_known);

  report.virtual_time = loop.now() - started;
  annotate_fault_events(report, world.fault_plan, started, loop.now());
  return report;
}

/// Merge world report `r` into `merged` (see ScanReport for the rules).
void merge_report(ScanReport& merged, const ScanReport& r) {
  merged.measured += r.measured;
  merged.from_cache += r.from_cache;
  merged.failed += r.failed;
  merged.failed_transient += r.failed_transient;
  merged.failed_permanent += r.failed_permanent;
  merged.failed_churned += r.failed_churned;
  merged.churn_reresolved += r.churn_reresolved;
  merged.retries += r.retries;
  merged.circuits_built += r.circuits_built;
  merged.half_cache_hits += r.half_cache_hits;
  merged.samples_saved += r.samples_saved;
  merged.time_building += r.time_building;
  merged.time_sampling += r.time_sampling;
  merged.reseeds += r.reseeds;
  merged.max_in_flight += r.max_in_flight;
  merged.max_per_relay_in_flight =
      std::max(merged.max_per_relay_in_flight, r.max_per_relay_in_flight);
  merged.virtual_time = std::max(merged.virtual_time, r.virtual_time);
  merged.deferred += r.deferred;
  merged.probation_probes += r.probation_probes;
  merged.interrupted_pairs += r.interrupted_pairs;
  merged.interrupted = merged.interrupted || r.interrupted;
  if (merged.retry_histogram.size() < r.retry_histogram.size())
    merged.retry_histogram.resize(r.retry_histogram.size(), 0);
  for (std::size_t k = 0; k < r.retry_histogram.size(); ++k)
    merged.retry_histogram[k] += r.retry_histogram[k];
  merged.failed_pairs.insert(merged.failed_pairs.end(), r.failed_pairs.begin(),
                             r.failed_pairs.end());
  merged.deferred_pairs.insert(merged.deferred_pairs.end(),
                               r.deferred_pairs.begin(),
                               r.deferred_pairs.end());
  merged.quarantine_events.insert(merged.quarantine_events.end(),
                                  r.quarantine_events.begin(),
                                  r.quarantine_events.end());
  merged.fault_events.insert(merged.fault_events.end(), r.fault_events.begin(),
                             r.fault_events.end());
}

/// World-count-independent ordering for the merged report's lists.
void sort_report_lists(ScanReport& report) {
  std::sort(report.failed_pairs.begin(), report.failed_pairs.end(),
            [](const FailedPair& a, const FailedPair& b) {
              return std::tie(a.a, a.b) < std::tie(b.a, b.b);
            });
  std::sort(report.deferred_pairs.begin(), report.deferred_pairs.end(),
            [](const DeferredPair& a, const DeferredPair& b) {
              return std::tie(a.a, a.b) < std::tie(b.a, b.b);
            });
  std::stable_sort(report.quarantine_events.begin(),
                   report.quarantine_events.end(),
                   [](const QuarantineEvent& a, const QuarantineEvent& b) {
                     return std::tie(a.at, a.relay) < std::tie(b.at, b.relay);
                   });
  std::stable_sort(report.fault_events.begin(), report.fault_events.end(),
                   [](const simnet::FaultPlan::Event& a,
                      const simnet::FaultPlan::Event& b) { return a.at < b.at; });
}

}  // namespace

ParallelScanner::ParallelScanner(std::vector<ScanWorld> worlds,
                                 RttMatrix& cache)
    : worlds_(std::move(worlds)), cache_(cache) {
  TING_CHECK_MSG(!worlds_.empty(), "a scan needs at least one world");
  for (const ScanWorld& w : worlds_) {
    TING_CHECK_MSG(!w.measurers.empty(), "a world needs at least one measurer");
    for (TingMeasurer* m : w.measurers) {
      TING_CHECK(m != nullptr);
      TING_CHECK_MSG(&m->host().loop() == &w.measurers[0]->host().loop(),
                     "a world's measurers must share one event loop");
    }
  }
}

ParallelScanner::ParallelScanner(std::vector<TingMeasurer*> measurers,
                                 RttMatrix& cache)
    : ParallelScanner(
          std::vector<ScanWorld>{ScanWorld{.measurers = std::move(measurers)}},
          cache) {}

ScanReport ParallelScanner::scan(const std::vector<dir::Fingerprint>& nodes,
                                 const ScanOptions& options,
                                 const ScanProgress& progress) {
  PairList pairs;
  if (!nodes.empty())
    pairs.reserve(nodes.size() * (nodes.size() - 1) / 2);
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      pairs.emplace_back(i, j);
  return scan_pairs(nodes, pairs, options, progress);
}

ScanReport ParallelScanner::scan_pairs(
    const std::vector<dir::Fingerprint>& nodes, const PairList& pairs,
    const ScanOptions& options, const ScanProgress& progress) {
  TING_CHECK(options.attempts_per_pair >= 1);
  TING_CHECK(options.per_relay_cap >= 1);
  TING_CHECK(options.retry_backoff_factor >= 1);
  for (const auto& [i, j] : pairs) {
    TING_CHECK(i < nodes.size() && j < nodes.size());
    TING_CHECK_MSG(i != j, "self-pairs are not measurable");
  }
  if (options.deterministic)
    for (const ScanWorld& w : worlds_)
      TING_CHECK_MSG(w.reseed != nullptr,
                     "deterministic scans need every world's reseed hook");

  // Deal the pairs round-robin so every world gets a representative mix of
  // relays (block partitioning would hand one world all the pairs of the
  // hottest relays).
  const std::size_t count = worlds_.size();
  std::vector<PairList> slices(count);
  for (std::size_t p = 0; p < pairs.size(); ++p)
    slices[p % count].push_back(pairs[p]);

  struct WorldResult {
    ScanReport report;
    RttMatrix matrix;
    HalfCircuitCache half_cache;  ///< world-private copy of the caller's cache
    std::exception_ptr error;
  };
  std::vector<WorldResult> results(count);
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;

  const auto run_world = [&](std::size_t w) {
    WorldResult& res = results[w];
    try {
      // Private copies of the caller's matrix (so a resumed scan skips
      // completed pairs in every world) and half cache: threads never share
      // them, and the results are copied back after join.
      res.matrix = cache_;
      ScanOptions opt = options;
      if (options.half_cache != nullptr) {
        res.half_cache = *options.half_cache;
        opt.half_cache = &res.half_cache;
      }
      ScanProgress world_progress;
      if (progress)
        world_progress = [&](std::size_t, std::size_t, const PairResult& r) {
          const std::size_t d = done.fetch_add(1) + 1;
          const std::lock_guard<std::mutex> lock(progress_mu);
          progress(d, pairs.size(), r);
        };
      res.report = options.deterministic
                       ? deterministic_scan_pairs(worlds_[w], res.matrix, nodes,
                                                  slices[w], opt,
                                                  world_progress)
                       : pool_scan_pairs(worlds_[w], res.matrix, nodes,
                                         slices[w], opt, world_progress);
    } catch (...) {
      res.error = std::current_exception();
    }
  };

  if (count == 1) {
    run_world(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(count);
    for (std::size_t w = 0; w < count; ++w) workers.emplace_back(run_world, w);
    for (std::thread& t : workers) t.join();
  }
  for (const WorldResult& r : results)
    if (r.error) std::rethrow_exception(r.error);

  ScanReport merged;
  merged.pairs_total = pairs.size();
  for (const WorldResult& r : results) merge_report(merged, r.report);
  sort_report_lists(merged);
  // Every world holds a copy of the whole caller matrix, so copy back only
  // the pairs of its own slice: another world's untouched copy of a pair
  // must not overwrite the fresh measurement.
  for (std::size_t w = 0; w < count; ++w) {
    for (const auto& [i, j] : slices[w]) {
      const RttMatrix::Entry* e = results[w].matrix.entry(nodes[i], nodes[j]);
      if (e != nullptr)
        cache_.set(nodes[i], nodes[j], e->rtt_ms, e->measured_at, e->samples);
    }
  }
  if (options.half_cache != nullptr)
    for (const WorldResult& r : results)
      options.half_cache->merge_freshest(r.half_cache);
  return merged;
}

}  // namespace ting::meas
