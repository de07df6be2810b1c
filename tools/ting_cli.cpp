// ting — command-line front-end for the library.
//
// Runs the paper's workflows end to end against simulated worlds and
// persisted RTT matrices, so the pieces compose like a real toolchain: the
// matrices `scan`, `daemon` and `serve` write feed `query`, `convert`,
// `tiv`, `deanon` and `coords`.
//
// Every command declares its flags once, in a table of (name, kind,
// default, help). argv is parsed strictly against that table — an unknown
// flag, a missing or malformed value, a repeated flag or a stray argument
// is a usage error (exit 2) before any work starts — and the usage text is
// generated from the same tables.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/congestion.h"
#include "analysis/coordinates.h"
#include "analysis/coverage.h"
#include "analysis/deanon.h"
#include "analysis/tiv.h"
#include "scenario/daemon_world.h"
#include "serve/path_server.h"
#include "scenario/scenario_file.h"
#include "scenario/scenario_library.h"
#include "scenario/shard_world.h"
#include "scenario/synthetic_env.h"
#include "scenario/testbed.h"
#include "scenario/timeline.h"
#include "ting/daemon.h"
#include "ting/half_circuit_cache.h"
#include "ting/measurer.h"
#include "ting/scan_journal.h"
#include "ting/scheduler.h"
#include "util/assert.h"
#include "util/stats.h"

namespace {

using namespace ting;

/// Graceful shutdown: SIGINT/SIGTERM ask the scan engines to stop claiming
/// pairs, drain what's in flight, and flush the artifacts + journal.
std::atomic<bool> g_stop{false};

void handle_stop(int) { g_stop.store(true); }

// ---- flag tables ------------------------------------------------------------

/// int, count, real and string flags take exactly one value; a bool takes
/// none and is switched off with --no-<name>. A count is a whole number
/// from 0 to kMaxCount (sizes, budgets, indices); kInt is for values that
/// may be negative.
enum class Kind { kInt, kCount, kReal, kStr, kBool };
using enum Kind;

/// Commands narrow some counts to int (samples, shards, runs, thresholds),
/// so a larger one would wrap into a wrong value instead of failing.
constexpr std::size_t kMaxCount = std::numeric_limits<int>::max();

/// One flag a command accepts. `def` is the default as text: "" leaves the
/// flag unset (Args::has is false; an unset number must not be read), and a
/// bool's is "on" or "off".
struct Flag {
  const char* name;
  Kind kind;
  const char* def;
  const char* help;
};

class Args;

struct Command {
  const char* name;
  int (*run)(Args&);
  const char* summary;
  /// Synopsis of the positional operands, or nullptr if the command takes
  /// none (then a positional argument is a usage error).
  const char* operands;
  std::vector<Flag> flags;
};

/// A usage error: main prints it, then the command's usage, and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <typename T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [at, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && at == end;
}

/// argv checked against one command's flag table. Commands read only flags
/// their table declares, and the table holds every default.
class Args {
 public:
  Args(const Command& cmd, int argc, char** argv) : cmd_(cmd) {
    for (const Flag& f : cmd_.flags) values_[f.name] = f.def;
    const Flag* prev = nullptr;
    for (int i = 2; i < argc; ++i) {
      const std::string tok = argv[i];
      if (!tok.starts_with("--")) {
        if (cmd_.operands == nullptr)
          throw UsageError("unexpected argument '" + tok + "'" +
                           (prev != nullptr && prev->kind == kBool
                                ? " (--" + std::string(prev->name) +
                                      " takes no value)"
                                : ""));
        operands_.push_back(tok);
        continue;
      }
      const Flag* f = find(tok.substr(2));
      const Flag* off = f == nullptr && tok.starts_with("--no-")
                            ? find(tok.substr(5))
                            : nullptr;
      if (off != nullptr && off->kind == kBool) f = off;
      if (f == nullptr) throw UsageError("unknown flag " + tok);
      const std::string flag = "--" + std::string(f->name);
      if (!given_.insert(f->name).second)
        throw UsageError(flag + " given twice");
      prev = f;
      if (f->kind == kBool) {
        values_[f->name] = f == off ? "off" : "on";
        continue;
      }
      if (i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--"))
        throw UsageError(flag + " wants a value");
      const std::string v = argv[++i];
      long n = 0;
      std::size_t c = 0;
      double x = 0;
      if ((f->kind == kInt && !parse_whole(v, n)) ||
          (f->kind == kCount && (!parse_whole(v, c) || c > kMaxCount)) ||
          (f->kind == kReal && !parse_whole(v, x)))
        throw UsageError("bad value for " + flag + ": " + v);
      values_[f->name] = v;
    }
  }

  long num(std::string_view n) const { return parsed<long>(n, kInt); }
  std::size_t count(std::string_view n) const {
    return parsed<std::size_t>(n, kCount);
  }
  double real(std::string_view n) const { return parsed<double>(n, kReal); }
  const std::string& str(std::string_view n) const { return value(n, kStr); }
  bool on(std::string_view n) const { return value(n, kBool) == "on"; }
  /// Whether the flag has a non-empty value, given or by default.
  bool has(std::string_view name) const {
    TING_CHECK_MSG(find(name) != nullptr, "undeclared flag --" << name);
    return !values_.find(name)->second.empty();
  }
  /// Replace a flag's table default unless argv gave the flag; flags this
  /// command does not declare are skipped.
  void set_default(std::string_view name, std::string v) {
    if (find(name) != nullptr && !given_.contains(name))
      values_[std::string(name)] = std::move(v);
  }
  const std::vector<std::string>& operands() const { return operands_; }

 private:
  const Flag* find(std::string_view name) const {
    for (const Flag& f : cmd_.flags)
      if (name == f.name) return &f;
    return nullptr;
  }
  const std::string& value(std::string_view name, Kind kind) const {
    const Flag* f = find(name);
    TING_CHECK_MSG(f != nullptr && f->kind == kind,
                   "--" << name << " is undeclared or of another kind");
    return values_.find(name)->second;
  }
  template <typename T>
  T parsed(std::string_view name, Kind kind) const {
    T out{};
    TING_CHECK(parse_whole(value(name, kind), out));
    return out;
  }

  const Command& cmd_;
  std::map<std::string, std::string, std::less<>> values_;
  std::set<std::string, std::less<>> given_;
  std::vector<std::string> operands_;
};

// ---- shared pieces ----------------------------------------------------------

/// Load --scenario, if given, and let it replace the table defaults of the
/// flags it sets: explicit flags still win, so `--scenario massacre --nodes 8`
/// shrinks the massacre.
std::optional<scenario::ScenarioFile> apply_scenario(Args& args) {
  if (!args.has("scenario")) return std::nullopt;
  scenario::ScenarioFile s = scenario::load_scenario(args.str("scenario"));
  std::fprintf(stderr, "scenario '%s' (%s): %s\n", s.name.c_str(),
               s.origin.c_str(), s.summary.c_str());
  const auto exact = [](double v) {  // shortest text that parses back to v
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  };
  args.set_default("relays", std::to_string(s.relays));
  args.set_default("nodes", std::to_string(s.nodes));
  args.set_default("seed", std::to_string(static_cast<long>(s.seed)));
  args.set_default("churn", exact(s.churn_rate));
  args.set_default("rejoin", exact(s.rejoin_rate));
  args.set_default("absent", exact(s.initially_absent));
  return s;
}

/// The scenario's fault clauses plus any --faults clauses, in that order,
/// in canonical grammar (what apply_fault_spec will parse).
std::string merged_fault_spec(const std::optional<scenario::ScenarioFile>& scn,
                              const Args& args) {
  const std::string& extra = args.str("faults");
  const std::string base = scn.has_value() ? scn->fault_spec_string() : "";
  if (base.empty()) return extra;
  if (extra.empty()) return base;
  return base + ";" + extra;
}

/// `--name a<sep>b`, both halves parsing whole: --pair i,j or --band lo:hi.
template <typename T>
std::pair<T, T> parse_two(const Args& args, const char* name, char sep,
                          const char* want) {
  const std::string& v = args.str(name);
  const std::size_t at = v.find(sep);
  std::pair<T, T> out{};
  if (at == std::string::npos ||
      !parse_whole(std::string_view(v).substr(0, at), out.first) ||
      !parse_whole(std::string_view(v).substr(at + 1), out.second))
    throw UsageError(std::string("--") + name + " wants " + want + ", got '" +
                     v + "'");
  return out;
}

/// Run the scenario's Murdoch–Danezis congestion attacker: build the
/// calibrated §4.1 probe testbed, put a victim stream on the scenario's
/// circuit, and probe one on-path and one off-path candidate with real
/// congestion floods (analysis/congestion.h). Returns 0 when the probes
/// ran and the on/off decisions match ground truth — the detection signal
/// the scenario-matrix CI job asserts on.
int run_congestion_adversary(const scenario::ScenarioFile& scn) {
  const scenario::CongestionAdversary& adv = scn.congestion;
  scenario::TestbedOptions o;
  o.seed = scn.seed;
  o.differential_fraction = scn.differential >= 0 ? scn.differential : 0;
  // Low ambient jitter: the probe reads latency shifts of a few ms, so the
  // attack world is calibrated like the congestion tests' ProbeWorld.
  o.latency.jitter_mean_ms = 0.05;
  o.latency.jitter_spike_prob = 0;
  scenario::Testbed tb = scenario::planetlab31(o);

  const auto idx = [&](int i) { return static_cast<std::size_t>(i); };
  bool built = false;
  tor::CircuitHandle handle = 0;
  tb.ting().op().build_circuit(
      {tb.fp(idx(adv.entry)), tb.fp(idx(adv.middle)), tb.fp(idx(adv.exit)),
       tb.ting().z_fp()},
      [&](tor::CircuitHandle h) {
        built = true;
        handle = h;
      },
      {});
  tb.loop().run_while_waiting_for([&] { return built; },
                                  Duration::seconds(120));
  if (!built) {
    std::fprintf(stderr, "congestion adversary: victim circuit %d-%d-%d "
                         "failed to build\n",
                 adv.entry, adv.middle, adv.exit);
    return 1;
  }
  bool connected = false;
  const tor::OnionProxy::StreamPtr victim = tb.ting().op().open_stream(
      handle, tb.ting().echo_endpoint(), [&] { connected = true; }, {});
  tb.loop().run_while_waiting_for([&] { return connected; },
                                  Duration::seconds(120));
  if (!connected) {
    std::fprintf(stderr, "congestion adversary: victim stream never "
                         "connected\n");
    return 1;
  }

  analysis::CongestionProbeConfig cfg;
  cfg.rounds = adv.rounds;
  cfg.burst_spacing = Duration::millis(1);

  struct Candidate {
    const char* role;
    int index;
    bool expect_on_path;
  };
  int rc = 0;
  for (const Candidate& c :
       {Candidate{"victim middle", adv.middle, true},
        Candidate{"off-path control", adv.off_path, false}}) {
    const analysis::CongestionVerdict v =
        analysis::congestion_probe(tb.ting(), victim, tb.fp(idx(c.index)),
                                   cfg);
    if (!v.ok) {
      std::fprintf(stderr, "congestion adversary: probe of relay %d (%s) "
                           "failed: %s\n",
                   c.index, c.role, v.error.c_str());
      rc = 1;
      continue;
    }
    std::printf("congestion adversary: relay %d (%s) -> %s, effect %.2f "
                "(on %.2fms vs off %.2fms, %zu flood cells)\n",
                c.index, c.role, v.on_path ? "ON PATH" : "off path",
                v.effect_size, v.mean_on_ms, v.mean_off_ms, v.flood_cells);
    if (v.on_path != c.expect_on_path) {
      std::fprintf(stderr, "congestion adversary: relay %d verdict "
                           "contradicts ground truth\n",
                   c.index);
      rc = 1;
    }
  }
  return rc;
}

void print_circuit(const serve::PathServer::Circuit& c) {
  std::printf("  %7.1fms ", c.rtt_ms);
  for (std::size_t i = 0; i < c.relays.size(); ++i)
    std::printf("%s%s", i == 0 ? "" : " -> ", c.relays[i].short_name().c_str());
  std::printf("\n");
}

const char* storage_name(const serve::MatrixSnapshot& snapshot) {
  return snapshot.storage() == serve::SnapshotStorage::kFloat32 ? "float32"
                                                                : "float64";
}

// ---- commands ---------------------------------------------------------------

int cmd_measure(Args& args) {
  const auto xi = args.count("x");
  const auto yi = args.count("y");
  scenario::TestbedOptions options;
  options.seed = static_cast<std::uint64_t>(args.num("seed"));
  scenario::Testbed world = scenario::live_tor(args.count("relays"), options);
  if (xi >= world.relay_count() || yi >= world.relay_count() || xi == yi) {
    std::fprintf(stderr, "x/y must be distinct indices below %zu\n",
                 world.relay_count());
    return 2;
  }
  meas::TingConfig cfg;
  cfg.samples = static_cast<int>(args.count("samples"));
  meas::TingMeasurer measurer(world.ting(), cfg);
  const meas::PairResult r =
      measurer.measure_blocking(world.fp(xi), world.fp(yi));
  if (!r.ok) {
    std::fprintf(stderr, "measurement failed: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("C_xy=%.3fms C_x=%.3fms C_y=%.3fms\n", r.cxy.min_rtt_ms,
              r.cx.min_rtt_ms, r.cy.min_rtt_ms);
  std::printf("ting estimate R(x,y) = %.3f ms (truth %.3f ms)\n", r.rtt_ms,
              world.true_rtt_ms(world.fp(xi), world.fp(yi)));
  return 0;
}

int cmd_scan(Args& args) {
  const auto scn = apply_scenario(args);
  const int parallel = static_cast<int>(args.count("parallel"));
  const int shards = static_cast<int>(args.count("shards"));
  const int cap = static_cast<int>(args.count("cap"));
  const bool use_journal = args.on("journal");
  const bool resume = args.on("resume");
  if (parallel < 1 || cap < 1 || shards < 1)
    throw UsageError("--parallel, --cap, and --shards must be >= 1");
  if (resume && !use_journal)
    throw UsageError("--resume needs the journal (drop --no-journal)");
  const std::string& out = args.str("out");
  const bool use_half_cache = args.on("half-cache");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));

  // The half-circuit cache persists beside the matrix as an exact-bits
  // TINGHCX1 image, so a re-scan reuses R_Cx measurements and, in the
  // deterministic mode, writes the same matrix again. On --resume the
  // journal's halves overlay the loaded ones.
  const std::string halves_path = out + ".halves";
  meas::HalfCircuitCache half_cache;
  if (use_half_cache && std::ifstream(halves_path).good())
    half_cache = meas::HalfCircuitCache::load_bin(halves_path);
  meas::HalfCircuitCache* half_cache_ptr =
      use_half_cache ? &half_cache : nullptr;

  // W worker worlds over one shared immutable topology, each with K
  // measurers. With --parallel 1 (the default) pairs are measured
  // deterministically, so the matrix is bit-identical for any --shards W;
  // with K > 1 each world's pool runs concurrently.
  scenario::ShardWorldOptions swo;
  swo.relays = args.count("relays");
  swo.scan_nodes = args.count("nodes");
  swo.testbed.seed = seed;
  if (scn && scn->differential >= 0)
    swo.testbed.differential_fraction = scn->differential;
  swo.ting.samples = static_cast<int>(args.count("samples"));
  swo.ting.adaptive_samples = args.on("adaptive-samples");
  swo.pool = static_cast<std::size_t>(parallel);
  swo.fault_spec = merged_fault_spec(scn, args);
  const auto construct_start = std::chrono::steady_clock::now();
  const scenario::TopologyPtr topology = scenario::shard_topology(swo);
  const std::vector<dir::Fingerprint> subset =
      scenario::shard_scan_nodes(swo, topology);
  const auto worlds = scenario::make_shard_worlds(
      swo, topology, static_cast<std::size_t>(shards));
  const double construct_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - construct_start)
          .count();

  // The journal records the scan-node count, a cheap same-scan check on
  // resume.
  meas::RttMatrix matrix;
  const std::string journal_path = out + ".journal";
  std::unique_ptr<meas::ScanJournal> journal;
  if (use_journal) {
    journal = std::make_unique<meas::ScanJournal>(
        journal_path,
        resume ? meas::ScanJournal::Mode::kResume
               : meas::ScanJournal::Mode::kFresh,
        meas::ScanJournal::Meta{1, seed, subset.size()});
    if (resume) {
      journal->restore(matrix, half_cache_ptr);
      std::fprintf(stderr,
                   "resume: %zu records recovered (%zu pairs done) from %s",
                   journal->records_recovered(), journal->pairs().size(),
                   journal_path.c_str());
      if (journal->torn_bytes() > 0)
        std::fprintf(stderr, "; dropped %zu-byte torn tail",
                     journal->torn_bytes());
      std::fprintf(stderr, "\n");
    }
    // Checkpoints rewrite <out>.halves from every half this scan holds, not
    // only the ones it journals.
    journal->enable_checkpoints(out, use_half_cache ? halves_path : "",
                                args.count("checkpoint-every"), half_cache);
    if (half_cache_ptr != nullptr)
      half_cache.set_store_observer(
          [&journal](const dir::Fingerprint& host_w,
                     const dir::Fingerprint& relay,
                     const meas::HalfCircuitCache::Entry& e) {
            journal->record_half(meas::ScanJournal::HalfRecord{
                host_w, relay, e.rtt_ms, e.measured_at, e.samples});
          });
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  meas::ParallelScanner scanner(scenario::scan_worlds(worlds), matrix);
  meas::ScanOptions scan_options;
  scan_options.per_relay_cap = cap;
  scan_options.deterministic = parallel == 1;
  scan_options.pair_seed = seed;
  scan_options.half_cache = half_cache_ptr;
  scan_options.pipeline_builds = args.on("pipeline");
  scan_options.journal = journal.get();
  scan_options.stop = &g_stop;
  scan_options.quarantine.enabled = args.on("quarantine");
  scan_options.quarantine.threshold =
      static_cast<int>(args.count("quarantine-threshold"));
  scan_options.quarantine.cooldown =
      Duration::seconds(
          static_cast<std::int64_t>(args.count("quarantine-cooldown")));
  scan_options.quarantine.max_windows =
      static_cast<int>(args.count("quarantine-max-windows"));
  const meas::ScanReport report = scanner.scan(
      subset, scan_options,
      [](std::size_t done, std::size_t total, const meas::PairResult& r) {
        std::fprintf(stderr, "\r[%zu/%zu] last=%.1fms   ", done, total,
                     r.rtt_ms);
      });
  std::fprintf(stderr, "\n");
  matrix.save_csv(out);
  if (use_half_cache) half_cache.save_bin(halves_path);
  std::printf("scanned %zu pairs (%zu measured, %zu cached, %zu failed, "
              "%zu retries) in %.1f virtual hours -> %s\n",
              report.pairs_total, report.measured, report.from_cache,
              report.failed, report.retries,
              report.virtual_time.sec() / 3600.0, out.c_str());
  if (!report.quarantine_events.empty() || report.deferred > 0) {
    std::printf("quarantine: %zu breaker events, %zu pairs deferred, "
                "%zu probation probes\n",
                report.quarantine_events.size(), report.deferred,
                report.probation_probes);
    for (const auto& ev : report.quarantine_events)
      std::printf("  quarantine @%8.1fs  %s %s (%d consecutive failures)\n",
                  ev.at.sec(), ev.relay.short_name().c_str(),
                  ev.terminal ? "written off" : "quarantined", ev.failures);
    for (const auto& dp : report.deferred_pairs)
      std::fprintf(stderr, "deferred %s <-> %s (relay %s quarantined)\n",
                   dp.a.short_name().c_str(), dp.b.short_name().c_str(),
                   dp.relay.short_name().c_str());
  }
  std::printf("engine: W=%d K=%d in-flight peak %zu, per-relay peak %zu "
              "(cap %d), build %.1fh sample %.1fh\n",
              shards, parallel, report.max_in_flight,
              report.max_per_relay_in_flight, cap,
              report.time_building.sec() / 3600.0,
              report.time_sampling.sec() / 3600.0);
  std::printf("setup: %d world(s) built in %.1f ms, %zu world reseeds\n",
              shards, construct_ms, report.reseeds);
  std::printf("optimizations: %zu circuits built, %zu half-cache hits, "
              "%zu samples saved%s\n",
              report.circuits_built, report.half_cache_hits,
              report.samples_saved,
              use_half_cache ? (" -> " + halves_path).c_str() : "");
  if (!swo.fault_spec.empty()) {
    std::printf("failures by class: %zu transient, %zu permanent, %zu "
                "churned (%zu pairs re-resolved after churn)\n",
                report.failed_transient, report.failed_permanent,
                report.failed_churned, report.churn_reresolved);
    for (const auto& e : report.fault_events)
      std::printf("  fault @%8.1fs  %s\n", e.at.sec(), e.what.c_str());
  }
  for (const auto& fp : report.failed_pairs)
    std::fprintf(stderr, "failed [%s] %s <-> %s: %s\n",
                 meas::to_string(fp.error_class), fp.a.short_name().c_str(),
                 fp.b.short_name().c_str(), fp.error.c_str());
  if (scn.has_value()) {
    // Every pair must land in exactly one bucket — the graceful-degradation
    // ledger the scenario-matrix CI job checks under hostile scenarios.
    const std::size_t accounted = report.measured + report.from_cache +
                                  report.failed + report.deferred +
                                  report.interrupted_pairs;
    std::printf("scenario %s accounting: %zu measured + %zu cached + %zu "
                "failed + %zu deferred + %zu interrupted = %zu of %zu pairs "
                "(%s)\n",
                scn->name.c_str(), report.measured, report.from_cache,
                report.failed, report.deferred, report.interrupted_pairs,
                accounted, report.pairs_total,
                accounted == report.pairs_total ? "OK" : "VIOLATION");
  }
  if (report.interrupted) {
    // Keep the journal: it carries the exact-bit state --resume needs.
    std::fprintf(stderr,
                 "interrupted: %zu of %zu pairs unresolved; journal kept at "
                 "%s — re-run the same scan command with --resume to "
                 "continue\n",
                 report.interrupted_pairs, report.pairs_total,
                 journal != nullptr ? journal_path.c_str() : "(no journal)");
    return 130;
  }
  // Clean finish: the artifacts carry the full state, so the journal has
  // nothing left to protect.
  if (journal != nullptr) journal->remove_file();
  if (scn && scn->congestion.enabled) {
    const int adversary_rc = run_congestion_adversary(*scn);
    if (adversary_rc != 0) return adversary_rc;
  }
  return report.failed == 0 ? 0 : 1;
}

/// `ting daemon` and `ting serve` are this one path: the same flags build
/// the same environment, config tag and DaemonOptions, so both write the
/// same store and either resumes the other's. Serve adds a PathServer that
/// publishes a snapshot at every checkpoint, then answers sample queries.
int run_daemon(Args& args, bool serving) {
  const auto scn = apply_scenario(args);
  // --synthetic N swaps the cell-level testbed for the paper-scale
  // synthetic environment (scenario/synthetic_env.h) of N relays.
  const bool synthetic = args.has("synthetic");
  if (synthetic) {
    if (args.count("synthetic") < 2)
      throw UsageError("--synthetic wants a relay count >= 2, got " +
                       std::to_string(args.count("synthetic")));
    args.set_default("half-cache", "off");
  }
  const std::size_t relays =
      synthetic ? args.count("synthetic") : args.count("relays");
  if (relays < 2 || args.count("epochs") < 1 || args.count("shards") < 1 ||
      args.real("epoch-hours") <= 0 || args.real("ttl-hours") <= 0)
    throw UsageError("bad sizing flags: --relays must be >= 2, --epochs and "
                     "--shards >= 1, --epoch-hours and --ttl-hours > 0");
  const std::size_t shards = args.count("shards");
  const int samples = static_cast<int>(args.count("samples"));
  const std::string faults = merged_fault_spec(scn, args);
  const bool use_half_cache = args.on("half-cache");
  const bool adaptive = args.on("adaptive-samples");
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  scenario::ChurnFeedOptions churn;
  churn.seed = seed;
  churn.churn_rate = args.real("churn");
  churn.rejoin_rate = args.real("rejoin");
  churn.initially_absent = args.real("absent");

  std::unique_ptr<meas::DaemonEnvironment> env;
  char tag[256];
  if (synthetic) {
    scenario::SyntheticEnvOptions seo;
    seo.relays = relays;
    seo.testbed.seed = seed;
    seo.churn = churn;
    seo.noise_ms = args.real("noise");
    seo.failure_rate = args.real("fail-rate");
    seo.samples = samples;
    auto senv = std::make_unique<scenario::SyntheticDaemonEnvironment>(seo);
    std::printf("daemon: synthetic topology (%zu relays, %zu pairs) built "
                "in %.1f ms\n",
                relays, relays * (relays - 1) / 2,
                senv->world_construct_ms());
    env = std::move(senv);
    std::snprintf(tag, sizeof(tag),
                  "synthetic=1;relays=%zu;churn=%.6f;rejoin=%.6f;"
                  "absent=%.6f;noise=%.6f;fail=%.6f;samples=%d",
                  relays, churn.churn_rate, churn.rejoin_rate,
                  churn.initially_absent, seo.noise_ms, seo.failure_rate,
                  samples);
  } else {
    scenario::DaemonWorldOptions dwo;
    dwo.relays = relays;
    dwo.testbed.seed = seed;
    if (scn && scn->differential >= 0)
      dwo.testbed.differential_fraction = scn->differential;
    dwo.ting.samples = samples;
    dwo.ting.adaptive_samples = adaptive;
    dwo.churn = churn;
    dwo.fault_spec = faults;
    dwo.shards = shards;
    auto tenv = std::make_unique<scenario::TestbedDaemonEnvironment>(dwo);
    std::printf("daemon: %zu persistent shard world(s) built in %.1f ms\n",
                shards, tenv->world_construct_ms());
    env = std::move(tenv);
    // Identify the world this store belongs to, so --resume against the
    // wrong testbed or measurement config fails loudly instead of
    // corrupting it. --shards is deliberately absent: deterministic output
    // is shard-count-independent, so a store may resume under a different
    // thread count. Likewise --journal: it does not change the artifacts
    // (pinned by tests), only crash granularity.
    std::snprintf(tag, sizeof(tag),
                  "relays=%zu;churn=%.6f;rejoin=%.6f;absent=%.6f;samples=%d;"
                  "adaptive=%d;half=%d;faults=%s",
                  relays, churn.churn_rate, churn.rejoin_rate,
                  churn.initially_absent, samples, adaptive ? 1 : 0,
                  use_half_cache ? 1 : 0, faults.c_str());
  }

  meas::DaemonOptions opt;
  opt.epochs = args.count("epochs");
  opt.epoch_interval = Duration::from_ms(args.real("epoch-hours") * 3600e3);
  opt.ttl = Duration::from_ms(args.real("ttl-hours") * 3600e3);
  opt.budget = args.count("budget");
  opt.coverage_target = args.real("coverage");
  opt.out = args.str("out");
  opt.resume = args.on("resume");
  opt.seed = seed;
  opt.half_cache = use_half_cache;
  opt.journal = args.on("journal");
  opt.stop = &g_stop;
  opt.engine.quarantine.enabled = args.on("quarantine");
  opt.engine.quarantine.threshold =
      static_cast<int>(args.count("quarantine-threshold"));
  opt.config_tag = tag;

  std::optional<serve::PathServer> server;
  if (serving) {
    serve::ServeOptions so;
    so.candidates_per_length = args.count("candidates");
    so.seed = seed;
    so.float32_snapshot = args.on("float32");
    server.emplace(so);
    opt.on_checkpoint = [&server, interval = opt.epoch_interval](
                            const meas::RttMatrix& m,
                            const std::vector<dir::Fingerprint>&,
                            const std::vector<dir::Fingerprint>& changed,
                            const meas::EpochStats& s) {
      server->publish(m, s.epoch,
                      meas::ScanDaemon::epoch_clock(interval, s.epoch),
                      changed);
      const auto st = server->state();
      std::printf("epoch %zu: published snapshot — %zu relays, %zu pairs "
                  "(%.1f%% coverage, %s, %.1f MB), %.0f%% TIV, %zu changed "
                  "relays\n",
                  s.epoch, st->snapshot.node_count(),
                  st->snapshot.pair_count(), 100 * st->snapshot.coverage(),
                  storage_name(st->snapshot),
                  static_cast<double>(st->snapshot.memory_bytes()) / 1e6,
                  100 * st->detours.tiv_fraction(), changed.size());
      std::fflush(stdout);
    };
  }

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  meas::ScanDaemon daemon(*env, opt);
  const auto on_epoch = [](const meas::EpochStats& s) {
    std::printf("epoch %zu: %zu nodes (+%zu/-%zu), planned %zu "
                "(%zu new, %zu expired, %zu over budget), measured %zu, "
                "cached %zu, failed %zu, deferred %zu, %zu reseeds -> "
                "coverage %.1f%% (%zu/%zu pairs fresh), store %zu pairs / "
                "%.1f MB\n",
                s.epoch, s.nodes, s.joined, s.left, s.plan.pairs.size(),
                s.plan.new_pairs, s.plan.expired_pairs,
                s.plan.dropped_over_budget, s.scan.measured,
                s.scan.from_cache, s.scan.failed, s.scan.deferred,
                s.scan.reseeds, 100 * s.coverage.coverage(),
                s.coverage.fresh, s.coverage.total, s.matrix_pairs,
                static_cast<double>(s.matrix_bytes) / 1e6);
    std::fflush(stdout);
  };
  const meas::DaemonReport report = daemon.run(on_epoch);

  if (args.has("csv")) daemon.matrix().save_csv(args.str("csv"));
  if (report.interrupted) {
    std::fprintf(stderr,
                 "interrupted at epoch %zu; journal and state kept — re-run "
                 "the same command with --resume to continue\n",
                 report.epochs_completed);
    return 130;
  }
  std::printf("daemon: %zu epochs complete, %zu pairs stored (%.1f MB), "
              "final coverage %.2f%% (target %.0f%%) -> %s\n",
              report.epochs_completed, report.matrix_pairs,
              static_cast<double>(report.matrix_bytes) / 1e6,
              100 * report.final_coverage, 100 * opt.coverage_target,
              opt.out.c_str());
  if (!serving) return report.converged ? 0 : 1;
  if (!server->ready()) {
    std::fprintf(stderr, "no epoch completed; nothing was published\n");
    return 1;
  }
  // Show the serving layer answering off the last published state.
  const auto st = server->state();
  const auto& nodes = st->snapshot.nodes();
  std::printf("%" PRIu64 " snapshots published; sample queries:\n",
              server->publishes());
  if (nodes.size() >= 2) {
    const auto detour = server->best_detour(nodes[0], nodes[1]);
    if (detour.has_value())
      std::printf("  detour %s <-> %s: %.1fms via %s%s\n",
                  nodes[0].short_name().c_str(), nodes[1].short_name().c_str(),
                  detour->detour_ms, detour->via.short_name().c_str(),
                  detour->tiv ? " (TIV)" : "");
    for (const auto& c : server->fastest_through(nodes[0], 3)) print_circuit(c);
  }
  return 0;
}

int cmd_daemon(Args& args) { return run_daemon(args, false); }
int cmd_serve(Args& args) { return run_daemon(args, true); }

/// Load a matrix, publish it into a PathServer once, and answer one query.
int cmd_query(Args& args) {
  // Exactly one query, checked before the matrix loads.
  std::vector<std::string> given;
  for (const char* name : {"pair", "through", "band"})
    if (args.has(name)) given.push_back(std::string("--") + name);
  if (given.empty())
    throw UsageError("query wants one of --pair, --through or --band");
  if (given.size() > 1) {
    std::string named = given[0];
    for (std::size_t i = 1; i < given.size(); ++i)
      named += (i + 1 == given.size() ? " and " : ", ") + given[i];
    throw UsageError("query takes one selector, got " + named);
  }
  std::optional<std::pair<long, long>> pair;
  std::optional<std::pair<double, double>> band;
  if (args.has("pair"))
    pair = parse_two<long>(args, "pair", ',', "i,j relay indices");
  else if (args.has("band"))
    band = parse_two<double>(args, "band", ':', "lo:hi in ms");
  serve::ServeOptions so;
  so.candidates_per_length = args.count("candidates");
  so.max_length = args.count("max-length");
  so.seed = static_cast<std::uint64_t>(args.num("seed"));
  so.float32_snapshot = args.on("float32");
  const meas::RttMatrix matrix = meas::RttMatrix::load(args.str("matrix"));
  serve::PathServer server(so);
  server.publish(matrix);
  const auto st = server.state();
  const auto& nodes = st->snapshot.nodes();
  std::printf("serving %zu relays, %zu pairs (%.1f%% coverage, %s image, "
              "%.1f MB), %.0f%% of measured pairs have a TIV detour\n",
              st->snapshot.node_count(), st->snapshot.pair_count(),
              100 * st->snapshot.coverage(), storage_name(st->snapshot),
              static_cast<double>(st->snapshot.memory_bytes()) / 1e6,
              100 * st->detours.tiv_fraction());

  const auto node_at = [&](long i) -> const dir::Fingerprint* {
    if (i < 0 || static_cast<std::size_t>(i) >= nodes.size()) {
      std::fprintf(stderr, "relay index %ld out of range [0, %zu)\n", i,
                   nodes.size());
      return nullptr;
    }
    return &nodes[static_cast<std::size_t>(i)];
  };

  if (pair.has_value()) {
    const auto* fa = node_at(pair->first);
    const auto* fb = node_at(pair->second);
    if (fa == nullptr || fb == nullptr) return 2;
    const auto direct = server.rtt(*fa, *fb);
    if (direct.has_value())
      std::printf("%s <-> %s: direct %.1fms\n", fa->short_name().c_str(),
                  fb->short_name().c_str(), *direct);
    else
      std::printf("%s <-> %s: direct unmeasured\n", fa->short_name().c_str(),
                  fb->short_name().c_str());
    const auto detour = server.best_detour(*fa, *fb);
    if (detour.has_value()) {
      std::printf("  best detour: %.1fms via %s%s\n", detour->detour_ms,
                  detour->via.short_name().c_str(),
                  detour->tiv ? " (beats direct: TIV)" : "");
    } else {
      std::printf("  no relay has both legs measured\n");
    }
    return 0;
  }
  if (band.has_value()) {
    const auto [lo, hi] = *band;
    const auto length = args.count("length");
    const auto circuits =
        server.circuits_in_band(length, lo, hi, args.count("want"));
    std::printf("~%.3g circuits of length %zu in [%.0f, %.0f]ms; sampled:\n",
                server.options_in_band(length, lo, hi), length, lo, hi);
    for (const auto& c : circuits) print_circuit(c);
    return 0;
  }
  const auto* relay = node_at(static_cast<long>(args.count("through")));
  if (relay == nullptr) return 2;
  const auto circuits = server.fastest_through(*relay, args.count("k"));
  std::printf("fastest %zu 3-hop circuits with %s as middle:\n",
              circuits.size(), relay->short_name().c_str());
  for (const auto& c : circuits) print_circuit(c);
  return 0;
}

int cmd_convert(Args& args) {
  const std::string& in = args.str("matrix");
  const meas::RttMatrix matrix = meas::RttMatrix::load(in);
  if (args.has("csv")) matrix.save_csv(args.str("csv"));
  if (args.has("bin")) matrix.save_bin(args.str("bin"));
  std::printf("%s: %zu pairs over %zu relays", in.c_str(), matrix.size(),
              matrix.nodes().size());
  for (const char* to : {"csv", "bin"})
    if (args.has(to)) std::printf(" -> %s", args.str(to).c_str());
  std::printf("\n");
  return 0;
}

int cmd_tiv(Args& args) {
  const meas::RttMatrix matrix = meas::RttMatrix::load(args.str("matrix"));
  // One O(n³) detour-index pass yields the findings and the fraction.
  const auto summary = analysis::tiv_summary(matrix);
  const auto& tivs = summary.findings;
  std::printf("%zu pairs, %.0f%% with a TIV\n", summary.measured_pairs,
              100 * summary.fraction);
  std::vector<double> savings;
  for (const auto& t : tivs) savings.push_back(100 * t.savings());
  if (!savings.empty())
    std::printf("savings: median %.1f%%, p90 %.1f%%\n",
                quantile(savings, 0.5), quantile(savings, 0.9));
  int shown = 0;
  for (const auto& t : tivs) {
    if (t.savings() < 0.15 || shown >= 10) continue;
    std::printf("  %s <-> %s: %.1fms direct, %.1fms via %s (-%.0f%%)\n",
                t.a.short_name().c_str(), t.b.short_name().c_str(),
                t.direct_ms, t.detour_ms, t.detour.short_name().c_str(),
                100 * t.savings());
    ++shown;
  }
  return 0;
}

int cmd_deanon(Args& args) {
  const int runs = static_cast<int>(args.count("runs"));
  const meas::RttMatrix matrix = meas::RttMatrix::load(args.str("matrix"));
  analysis::DeanonWorld world;
  world.nodes = matrix.nodes();
  world.matrix = &matrix;
  if (world.nodes.size() < 4) {
    std::fprintf(stderr, "matrix too small (need >= 4 nodes)\n");
    return 2;
  }
  using Row = std::pair<const char*, analysis::Strategy>;
  for (const auto& [name, strategy] :
       {Row{"rtt-unaware", analysis::Strategy::kRttUnaware},
        Row{"ignore-too-large", analysis::Strategy::kIgnoreTooLarge},
        Row{"informed", analysis::Strategy::kInformed}}) {
    Rng crng(42), prng(43);
    std::vector<double> fr;
    int skipped = 0;
    for (int i = 0; i < runs; ++i) {
      // Redraws until every leg is measured, so a partially-converged
      // daemon store analyses instead of aborting; on a complete matrix
      // the first draw lands and the RNG stream is the historical one.
      const auto c = analysis::try_sample_circuit(world, crng, false);
      if (!c.has_value()) {
        ++skipped;
        continue;
      }
      fr.push_back(
          analysis::deanonymize(world, *c, strategy, prng).fraction_probed);
    }
    if (fr.empty()) {
      std::printf("%-18s no measurable circuit in %d runs (matrix too "
                  "sparse)\n",
                  name, runs);
      continue;
    }
    std::printf("%-18s median %.1f%% of nodes probed", name,
                100 * quantile(fr, 0.5));
    if (skipped > 0)
      std::printf("  (%d/%d runs skipped: unmeasured legs)", skipped, runs);
    std::printf("\n");
  }
  return 0;
}

int cmd_coords(Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed"));
  const std::size_t percent = args.count("percent");
  const meas::RttMatrix matrix = meas::RttMatrix::load(args.str("matrix"));
  analysis::VivaldiSystem vivaldi;
  Rng rng(seed);
  vivaldi.fit(matrix, matrix.nodes(), rng, percent / 100.0);
  const auto errs = vivaldi.relative_errors(matrix);
  std::printf("vivaldi embedding: relative error median %.1f%%, p90 %.1f%%\n",
              100 * quantile(errs, 0.5), 100 * quantile(errs, 0.9));
  const auto tivs = analysis::find_all_tivs(matrix);
  std::printf("TIVs in the measured matrix: %zu; expressible by the "
              "embedding: 0 (metric space)\n",
              tivs.size());
  return 0;
}

/// `ting scenario list | show <name|path> [--raw] | validate <name|path>`:
/// scenario names are positional operands, unlike the other commands.
int cmd_scenario(Args& args) {
  const std::vector<std::string>& ops = args.operands();
  const std::string action = ops.empty() ? "list" : ops[0];
  if (action != "list" && action != "show" && action != "validate")
    throw UsageError("unknown scenario action '" + action +
                     "' (list, show, validate)");
  // The action (list by default), then one scenario for show and validate.
  const std::size_t want = action == "list" ? 1 : 2;
  if (ops.size() > want || (ops.size() < want && !ops.empty()))
    throw UsageError(ops.size() > want
                         ? "unexpected argument '" + ops[want] + "'"
                         : action + " wants a scenario name or path");
  if (args.on("raw") && action != "show")
    throw UsageError("--raw applies to `scenario show` only");
  if (action == "list") {
    std::printf("%-20s %s\n", "NAME", "SUMMARY");
    for (const auto& entry : scenario::scenario_library()) {
      const scenario::ScenarioFile s = scenario::ScenarioFile::parse(
          entry.text, "<embedded:" + entry.name + ">");
      std::printf("%-20s %s\n", entry.name.c_str(), s.summary.c_str());
    }
    std::printf("(run with: ting scan --scenario <name>; files in "
                "examples/scenarios/ load by path)\n");
    return 0;
  }
  const std::string& target = ops[1];
  if (action == "show") {
    if (args.on("raw")) {
      // Byte-exact text: the CI lint diffs this against the on-disk copy.
      const scenario::LibraryScenario* entry = scenario::find_scenario(target);
      std::ifstream f(target);
      if (entry == nullptr && !f.good()) {
        std::fprintf(stderr, "unknown scenario or unreadable file: %s\n",
                     target.c_str());
        return 2;
      }
      std::fputs(entry != nullptr ? entry->text.c_str()
                                  : std::string(std::istreambuf_iterator(f),
                                                {}).c_str(),
                 stdout);
      return 0;
    }
    const scenario::ScenarioFile s = scenario::load_scenario(target);
    std::printf("scenario %s (v%d, from %s)\n  %s\n", s.name.c_str(),
                s.version, s.origin.c_str(), s.summary.c_str());
    std::printf("  topology: %zu relays, %zu scan nodes, seed %" PRIu64 "\n",
                s.relays, s.nodes, s.seed);
    if (s.differential >= 0)
      std::printf("  differential fraction: %.2f\n", s.differential);
    if (s.has_faults())
      std::printf("  faults (%zu clauses): %s\n", s.faults.clauses.size(),
                  s.fault_spec_string().c_str());
    if (s.churn_rate > 0)
      std::printf("  daemon churn: rate %.3f, rejoin %.3f, initially absent "
                  "%.3f\n",
                  s.churn_rate, s.rejoin_rate, s.initially_absent);
    if (s.congestion.enabled)
      std::printf("  congestion adversary: %d rounds against victim circuit "
                  "%d-%d-%d (off-path control %d)\n",
                  s.congestion.rounds, s.congestion.entry,
                  s.congestion.middle, s.congestion.exit,
                  s.congestion.off_path);
    return 0;
  }
  try {
    const scenario::ScenarioFile s = scenario::load_scenario(target);
    std::printf("%s: OK (scenario %s, %zu fault clauses%s)\n",
                target.c_str(), s.name.c_str(), s.faults.clauses.size(),
                s.congestion.enabled ? ", congestion adversary" : "");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: INVALID — %s\n", target.c_str(), e.what());
    return 1;
  }
}

int cmd_coverage(Args& args) {
  scenario::TimelineOptions options;
  options.days = static_cast<int>(args.count("days"));
  options.initial_relays = args.count("relays");
  const auto tl = scenario::make_timeline(options);
  std::printf("%s: %zu relays, %zu /24s  ->  %s: %zu relays, %zu /24s\n",
              tl.days.front().date.c_str(), tl.days.front().total_relays,
              tl.days.front().unique_slash24, tl.days.back().date.c_str(),
              tl.days.back().total_relays, tl.days.back().unique_slash24);
  const auto stats = analysis::coverage_stats(tl.final_consensus);
  std::printf("final day: %zu relays, %zu named (%.0f%% residential), "
              "%zu countries\n",
              stats.total_relays, stats.with_rdns,
              100 * stats.residential_fraction_of_named(), stats.countries);
  return 0;
}

// ---- the command table ------------------------------------------------------

const std::vector<Flag> kDaemonFlags = {
    {"scenario", kStr, "", "scenario name or file (sets defaults)"},
    {"synthetic", kCount, "", "N-relay synthetic world (N >= 2), no testbed"},
    {"relays", kCount, "20", "testbed relays"},
    {"epochs", kCount, "6", "epochs to run"},
    {"budget", kCount, "0", "pairs per epoch (0 = unlimited)"},
    {"epoch-hours", kReal, "1", "virtual hours per epoch"},
    {"ttl-hours", kReal, "168", "re-measure pairs older than this"},
    {"churn", kReal, "0.05", "per-epoch relay departure rate"},
    {"rejoin", kReal, "0.5", "per-epoch rejoin rate of departed relays"},
    {"absent", kReal, "0", "fraction of relays absent at epoch 0"},
    {"coverage", kReal, "0.99", "fresh-pair coverage that converges"},
    {"samples", kCount, "50", "echo samples per circuit"},
    {"shards", kCount, "1", "worker worlds (output does not depend on it)"},
    {"faults", kStr, "", "fault spec, after the scenario's (grammar below)"},
    {"seed", kInt, "1", "master seed"},
    {"noise", kReal, "0.5", "synthetic jitter, ms"},
    {"fail-rate", kReal, "0", "synthetic per-attempt failure probability"},
    {"out", kStr, "daemon.tingmx", "store; beside it .state .journal .halves"},
    {"csv", kStr, "", "also write the final store as CSV"},
    {"resume", kBool, "off", "continue the store's interrupted run"},
    {"half-cache", kBool, "on", "memoize half circuits (off with --synthetic)"},
    {"adaptive-samples", kBool, "on", "stop sampling once the minimum settles"},
    {"journal", kBool, "on", "fsync each resolved pair for pair-level resume"},
    {"quarantine", kBool, "on", "bench relays that keep failing"},
    {"quarantine-threshold", kCount, "3", "consecutive failures that trip it"},
};

std::vector<Flag> with(std::vector<Flag> flags,
                       std::initializer_list<Flag> extra) {
  flags.insert(flags.end(), extra);
  return flags;
}

const Flag kMatrix = {"matrix", kStr, "matrix.csv", "scan CSV or daemon store"};

const std::vector<Command> kCommands = {
    {"measure", cmd_measure, "measure one relay pair with Ting", nullptr,
     {{"relays", kCount, "60", "relays in the simulated world"},
      {"samples", kCount, "200", "echo samples per circuit"},
      {"x", kCount, "0", "index of relay x"},
      {"y", kCount, "1", "index of relay y"},
      {"seed", kInt, "1", "world seed"}}},
    {"scan", cmd_scan, "all-pairs scan to a CSV matrix", nullptr,
     {{"scenario", kStr, "", "scenario name or file (sets defaults)"},
      {"relays", kCount, "25", "relays in the world"},
      {"nodes", kCount, "12", "relays scanned"},
      {"samples", kCount, "200", "echo samples per circuit"},
      {"parallel", kCount, "1", "hosts per world; 1 is deterministic"},
      {"shards", kCount, "1", "worker worlds, one thread each"},
      {"cap", kCount, "1", "concurrent circuits per relay"},
      {"faults", kStr, "", "fault spec, after the scenario's (grammar below)"},
      {"seed", kInt, "1", "world and pair seed"},
      {"out", kStr, "matrix.csv", "matrix CSV; beside it .halves .journal"},
      {"half-cache", kBool, "on", "memoize half circuits in <out>.halves"},
      {"adaptive-samples", kBool, "on", "stop sampling once the min settles"},
      {"pipeline", kBool, "on", "prebuild the next circuit (--parallel > 1)"},
      {"journal", kBool, "on", "fsync each resolved pair to <out>.journal"},
      {"resume", kBool, "off", "continue from <out>.journal"},
      {"checkpoint-every", kCount, "25", "pairs between artifact checkpoints"},
      {"quarantine", kBool, "on", "bench relays that keep failing"},
      {"quarantine-threshold", kCount, "3",
       "consecutive failures that trip it"},
      {"quarantine-cooldown", kCount, "600", "seconds a relay stays benched"},
      {"quarantine-max-windows", kCount, "2", "windows before deferring"}}},
    {"daemon", cmd_daemon, "continuous epoch-by-epoch scan into a store",
     nullptr, kDaemonFlags},
    {"serve", cmd_serve, "the daemon plus path-selection serving", nullptr,
     with(kDaemonFlags,
          {{"candidates", kCount, "500", "sampled circuits per length"},
           {"float32", kBool, "off", "halve the snapshot image"}})},
    {"query", cmd_query, "path-selection queries off a matrix", nullptr,
     {kMatrix,
      {"pair", kStr, "", "i,j: direct RTT and best detour"},
      {"through", kCount, "", "i: fastest 3-hop circuits with i as middle"},
      {"k", kCount, "5", "circuits for --through"},
      {"band", kStr, "", "lo:hi: circuits with RTT in [lo, hi] ms"},
      {"length", kCount, "3", "circuit length for --band"},
      {"want", kCount, "5", "circuits sampled for --band"},
      {"candidates", kCount, "2000", "sampled circuits per length"},
      {"max-length", kCount, "6", "longest circuit indexed"},
      {"seed", kInt, "1", "sampling seed"},
      {"float32", kBool, "off", "halve the snapshot image"}}},
    {"convert", cmd_convert, "matrix format conversion", nullptr,
     {kMatrix,
      {"csv", kStr, "", "write CSV here"},
      {"bin", kStr, "", "write the binary store here"}}},
    {"tiv", cmd_tiv, "triangle-inequality report", nullptr, {kMatrix}},
    {"deanon", cmd_deanon, "deanonymization strategy comparison", nullptr,
     {kMatrix, {"runs", kCount, "300", "sampled circuits per strategy"}}},
    {"coords", cmd_coords, "Vivaldi-embedding comparison", nullptr,
     {kMatrix,
      {"seed", kInt, "2", "embedding seed"},
      {"percent", kCount, "100", "percent of pairs the embedding trains on"}}},
    {"coverage", cmd_coverage, "consensus timeline and host classes", nullptr,
     {{"days", kCount, "60", "days of consensus history"},
      {"relays", kCount, "6400", "relays on day one"}}},
    {"scenario", cmd_scenario, "scenario library tooling",
     "list | show <name|path> [--raw] | validate <name|path>",
     {{"raw", kBool, "off", "show prints the exact file text"}}},
};

constexpr const char* kFaultGrammar =
    "fault spec (clauses ';'-separated, see src/scenario/faults.h):\n"
    "  loss:<target>:<prob>[:<start_s>:<dur_s>]\n"
    "  degrade:<target>:<extra_ms>:<jitter_ms>[:<start_s>:<dur_s>]\n"
    "  crash:<target>:<start_s>:<dur_s>\n"
    "  churn:<events>:<start_s>:<period_s>:<down_s>\n"
    "  die:<target>[:<start_s>]\n"
    "  diurnal:<target>:<peak_ms>:<period_s>[:<steps>:<periods>]\n"
    "  flash:<target>:<start_s>:<dur_s>:<extra_ms>:<loss_prob>\n"
    "  (<target> = scan-node index or '*'; e.g. \"loss:*:0.05;churn:2:30:60:120\")\n";

/// The usage text of one command, or of all of them, from the tables.
void usage(const Command* only) {
  std::fprintf(stderr, "usage: ting %s [--flag value ...]\n",
               only != nullptr ? only->name : "<command>");
  bool faults = false;
  for (const Command& c : kCommands) {
    if (only != nullptr && only != &c) continue;
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.summary);
    if (c.operands != nullptr) std::fprintf(stderr, "    %s\n", c.operands);
    for (const Flag& f : c.flags) {
      static constexpr const char* kMetavar[] = {" N", " N", " X", " STR", ""};
      const std::string lhs =
          (f.kind == kBool ? "--[no-]" : "--") + std::string(f.name) +
          kMetavar[static_cast<int>(f.kind)];
      const bool def = *f.def != '\0';
      std::fprintf(stderr, "    %-28s %s%s%s%s\n", lhs.c_str(), f.help,
                   def ? " [" : "", f.def, def ? "]" : "");
      faults = faults || std::string_view(f.name) == "faults";
    }
  }
  if (faults) std::fputs(kFaultGrammar, stderr);
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = nullptr;
  for (const Command& c : kCommands)
    if (argc >= 2 && std::string_view(argv[1]) == c.name) cmd = &c;
  if (cmd == nullptr) {
    if (argc >= 2) std::fprintf(stderr, "error: unknown command %s\n", argv[1]);
    usage(nullptr);
    return 2;
  }
  try {
    Args args(*cmd, argc, argv);
    return cmd->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(cmd);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
