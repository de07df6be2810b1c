#include "ting/daemon.h"

#include <fstream>
#include <memory>
#include <sstream>

#include "ting/scan_journal.h"
#include "util/assert.h"
#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace ting::meas {

namespace {

/// Engine-level freshness horizon. The daemon's planner owns TTL policy;
/// inside one epoch nothing may go stale (deterministic results carry zero
/// timestamps), so the engines and half cache run with an effectively
/// infinite max age. 100 years stays far below the int64 nanosecond range.
constexpr Duration kForever = Duration::seconds(100LL * 365 * 24 * 3600);

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

constexpr char kStateHeader[] = "ting-daemon-state,v1";

}  // namespace

ScanDaemon::ScanDaemon(DaemonEnvironment& env, DaemonOptions options)
    : env_(env), options_(std::move(options)) {
  TING_CHECK_MSG(!options_.out.empty(), "daemon needs an --out matrix path");
  TING_CHECK_MSG(options_.epoch_interval > Duration{},
                 "daemon epoch interval must be positive");
  TING_CHECK_MSG(options_.ttl > Duration{}, "daemon TTL must be positive");
}

std::uint64_t ScanDaemon::epoch_pair_seed(std::uint64_t seed,
                                          std::size_t epoch) {
  return mix64(seed ^ mix64(static_cast<std::uint64_t>(epoch) + 1));
}

void ScanDaemon::write_state(std::size_t next_epoch) const {
  std::ostringstream os;
  os << kStateHeader << "\n"
     << "seed=" << options_.seed << "\n"
     << "epoch_interval_ns=" << options_.epoch_interval.ns() << "\n"
     << "ttl_ns=" << options_.ttl.ns() << "\n"
     << "budget=" << options_.budget << "\n"
     << "config_tag=" << options_.config_tag << "\n"
     << "next_epoch=" << next_epoch << "\n";
  atomic_write_file(state_path(options_.out), os.str());
}

ScanDaemon::State ScanDaemon::load_state() const {
  const std::string path = state_path(options_.out);
  std::ifstream f(path);
  TING_CHECK_MSG(f.good(), "daemon --resume: cannot open state file "
                               << path
                               << " (was this store created without one?)");
  std::stringstream buf;
  buf << f.rdbuf();
  State st;
  bool first = true;
  bool saw_next = false;
  for (const std::string& line : split(buf.str(), '\n')) {
    if (first) {
      TING_CHECK_MSG(line == kStateHeader,
                     "daemon state file " << path << " has unknown header: "
                                          << line);
      first = false;
      continue;
    }
    if (trim(line).empty()) continue;
    const std::size_t eq = line.find('=');
    TING_CHECK_MSG(eq != std::string::npos,
                   "daemon state file " << path << ": bad line: " << line);
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    try {
      if (key == "seed") {
        st.seed = std::stoull(value);
      } else if (key == "epoch_interval_ns") {
        st.epoch_interval_ns = std::stoll(value);
      } else if (key == "ttl_ns") {
        st.ttl_ns = std::stoll(value);
      } else if (key == "budget") {
        st.budget = std::stoull(value);
      } else if (key == "config_tag") {
        st.config_tag = value;
      } else if (key == "next_epoch") {
        st.next_epoch = std::stoull(value);
        saw_next = true;
      }
      // Unknown keys are ignored: a newer daemon may add fields.
    } catch (const std::exception&) {
      TING_CHECK_MSG(false,
                     "daemon state file " << path << ": bad value: " << line);
    }
  }
  TING_CHECK_MSG(saw_next,
                 "daemon state file " << path << " is missing next_epoch");
  return st;
}

DaemonReport ScanDaemon::run(const EpochCallback& on_epoch,
                             const ScanProgress& progress) {
  const auto stopped = [this] {
    return options_.stop != nullptr &&
           options_.stop->load(std::memory_order_relaxed);
  };

  std::size_t start_epoch = 0;
  if (options_.resume) {
    const State st = load_state();
    TING_CHECK_MSG(
        st.seed == options_.seed &&
            st.epoch_interval_ns == options_.epoch_interval.ns() &&
            st.ttl_ns == options_.ttl.ns() && st.budget == options_.budget &&
            st.config_tag == options_.config_tag,
        "daemon --resume: store " << options_.out
                                  << " was produced by a different "
                                     "configuration (state file disagrees)");
    start_epoch = st.next_epoch;
    if (file_exists(options_.out))
      matrix_ = RttMatrix::load_bin(options_.out);
    if (options_.half_cache && file_exists(halves_path(options_.out)))
      half_cache_ = HalfCircuitCache::load_bin(halves_path(options_.out));
  } else {
    // Fresh store: truncate any artifacts a previous run left at this path,
    // then persist the zero state so a crash inside epoch 0 can resume.
    matrix_ = {};
    matrix_.save_bin(options_.out);
    if (options_.half_cache) half_cache_.save_bin(halves_path(options_.out));
    write_state(0);
  }
  half_cache_.set_max_age(kForever);

  DaemonReport report;
  report.epochs_completed = start_epoch;

  // Replay consensus churn up to the resume point: epoch state is derived,
  // never persisted — the environment derives churn from epoch numbers.
  ConsensusDeltaTracker tracker;
  for (std::size_t e = 0; e < start_epoch; ++e) env_.advance_epoch(e);
  if (start_epoch > 0) tracker.observe(env_.nodes());

  for (std::size_t e = start_epoch; e < options_.epochs; ++e) {
    if (stopped()) {
      report.interrupted = true;
      break;
    }
    env_.advance_epoch(e);
    EpochStats stats;
    stats.epoch = e;
    const std::vector<dir::Fingerprint> nodes = env_.nodes();
    stats.nodes = nodes.size();
    const ConsensusDeltaTracker::Delta delta = tracker.observe(nodes);
    stats.joined = delta.joined.size();
    stats.left = delta.left.size();

    const TimePoint now = epoch_clock(options_.epoch_interval, e);
    const DeltaPlanOptions plan_opts{options_.ttl, options_.budget};
    stats.plan = options_.incremental_planner
                     ? planner_.plan_delta_incremental(matrix_, nodes,
                                                       delta.joined, now,
                                                       plan_opts)
                     : plan_delta(matrix_, nodes, now, plan_opts);

    ScanOptions opt = options_.engine;
    // Deterministic replay is what makes a resumed epoch byte-identical.
    opt.deterministic = true;
    opt.pair_seed = epoch_pair_seed(options_.seed, e);
    opt.stop = options_.stop;
    opt.max_age = kForever;
    opt.half_cache = options_.half_cache ? &half_cache_ : nullptr;
    // The planner's order is load-bearing (new pairs before expired ones,
    // so an interrupted epoch keeps its highest-priority results); don't
    // let the engine shuffle it.
    opt.randomize_order = false;

    // Per-epoch journal. meta.nodes is deliberately 0: under fault plans the
    // consensus at epoch re-entry can differ from the crashed process's
    // (fault timers fire at world-virtual times), and the epoch-specific
    // pair_seed already identifies which epoch a journal belongs to.
    RttMatrix epoch_matrix;
    const ScanJournal::Meta meta{1, opt.pair_seed, 0};
    const std::string jpath = journal_path(options_.out);
    std::unique_ptr<ScanJournal> journal;
    if (options_.journal) {
      const bool try_resume = options_.resume && e == start_epoch;
      try {
        journal = std::make_unique<ScanJournal>(
            jpath, try_resume ? ScanJournal::Mode::kResume
                              : ScanJournal::Mode::kFresh,
            meta);
      } catch (const CheckError&) {
        // The journal on disk belongs to a *different* epoch: the previous
        // process crashed after checkpointing its artifacts but before
        // deleting the journal. Those pairs are already in the matrix —
        // start this epoch's journal fresh.
        journal = std::make_unique<ScanJournal>(jpath,
                                                ScanJournal::Mode::kFresh,
                                                meta);
      }
      if (journal->records_recovered() > 0) {
        journal->restore(epoch_matrix, opt.half_cache);
        stats.journal_recovered = journal->pairs().size();
      }
    }
    opt.journal = journal.get();
    if (opt.half_cache != nullptr && journal != nullptr) {
      ScanJournal* j = journal.get();
      opt.half_cache->set_store_observer(
          [j](const dir::Fingerprint& host_w, const dir::Fingerprint& relay,
              const HalfCircuitCache::Entry& entry) {
            j->record_half(ScanJournal::HalfRecord{
                host_w, relay, entry.rtt_ms, entry.measured_at, entry.samples});
          });
    }

    stats.scan =
        env_.scan_pairs(nodes, stats.plan.pairs, epoch_matrix, opt, progress);
    if (opt.half_cache != nullptr) opt.half_cache->set_store_observer({});

    if (stats.scan.interrupted || stopped()) {
      // Mid-epoch shutdown: keep the journal and state exactly as they are;
      // the next --resume re-enters this epoch and replays the journal.
      report.interrupted = true;
      stats.coverage = matrix_.coverage(nodes, now, options_.ttl);
      stats.matrix_pairs = matrix_.size();
      stats.matrix_bytes = matrix_.memory_bytes();
      report.epochs.push_back(stats);
      break;
    }

    // Epoch complete. Checkpoint order matters for crash windows: artifacts
    // first (matrix + halves), then the journal deletion, then the state
    // bump — a crash between any two steps resumes into this same epoch and
    // re-derives an already-satisfied (hence near-empty) plan.
    matrix_.absorb(epoch_matrix, now);
    matrix_.save_bin(options_.out);
    if (options_.half_cache) half_cache_.save_bin(halves_path(options_.out));
    if (journal != nullptr) {
      journal->remove_file();
      journal.reset();
    }
    write_state(e + 1);

    stats.coverage = matrix_.coverage(nodes, now, options_.ttl);
    stats.matrix_pairs = matrix_.size();
    stats.matrix_bytes = matrix_.memory_bytes();
    report.epochs.push_back(stats);
    report.epochs_completed = e + 1;
    if (options_.on_checkpoint) {
      // Relays with at least one new or refreshed pair this epoch — exactly
      // the incremental-update worklist a detour index wants.
      options_.on_checkpoint(matrix_, nodes, epoch_matrix.nodes(), stats);
    }
    if (on_epoch) on_epoch(stats);
  }

  if (!report.epochs.empty()) {
    report.final_coverage = report.epochs.back().coverage.coverage();
  } else {
    // Nothing ran this invocation (resumed a finished store, or stopped
    // before the first epoch): census the store against the current
    // consensus at the last completed epoch's clock.
    const std::size_t last = start_epoch > 0 ? start_epoch - 1 : 0;
    report.final_coverage =
        matrix_
            .coverage(env_.nodes(), epoch_clock(options_.epoch_interval, last),
                      options_.ttl)
            .coverage();
  }
  report.converged =
      !report.interrupted && report.final_coverage >= options_.coverage_target;
  report.matrix_pairs = matrix_.size();
  report.matrix_bytes = matrix_.memory_bytes();
  return report;
}

}  // namespace ting::meas
