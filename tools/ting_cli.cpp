// ting — command-line front-end for the library.
//
// Runs the paper's workflows end to end against simulated worlds and
// CSV-persisted RTT matrices, so the pieces compose like a real toolchain:
//
//   ting measure  --relays 60 --samples 200 --x 0 --y 15
//   ting scan     --relays 25 --nodes 12 --samples 100 --out matrix.csv
//   ting tiv      --matrix matrix.csv
//   ting deanon   --matrix matrix.csv --runs 300
//   ting coords   --matrix matrix.csv
//   ting coverage --days 60 --relays 6400
//
// Matrices written by `scan` feed `tiv`, `deanon`, and `coords`.
#include <atomic>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
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
#include "util/stats.h"

namespace {

using namespace ting;

/// Graceful shutdown: SIGINT/SIGTERM ask the scan engines to stop claiming
/// pairs, drain what's in flight, and flush the artifacts + journal.
std::atomic<bool> g_stop{false};

void handle_stop(int) { g_stop.store(true); }

struct Args {
  std::map<std::string, std::string> kv;

  static Args parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc;) {
      const std::string key = argv[i];
      if (key.size() < 3 || key[0] != '-' || key[1] != '-') {
        std::fprintf(stderr, "bad flag: %s\n", key.c_str());
        std::exit(2);
      }
      // A flag followed by another flag (or nothing) is boolean: "--pipeline".
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        a.kv[key.substr(2)] = "1";
        i += 1;
      } else {
        a.kv[key.substr(2)] = argv[i + 1];
        i += 2;
      }
    }
    return a;
  }
  long num(const std::string& key, long fallback) const {
    return parsed(key, fallback);
  }
  double real(const std::string& key, double fallback) const {
    return parsed(key, fallback);
  }
  std::string str(const std::string& key, const std::string& fallback) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second;
  }
  /// On/off switch with a --no-<key> escape hatch; bare "--<key>" means on.
  bool flag(const std::string& key, bool fallback) const {
    if (kv.contains("no-" + key)) return false;
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second != "0";
  }

 private:
  /// The whole value must parse as a T; anything else ("12x", "abc") is a
  /// usage error (exit 2), never a silent default. Commands read their
  /// numeric flags before doing any work, so nothing has been written yet.
  template <typename T>
  T parsed(const std::string& key, T fallback) const {
    auto it = kv.find(key);
    if (it == kv.end()) return fallback;
    const std::string& v = it->second;
    T out{};
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
    if (ec != std::errc{} || end != v.data() + v.size()) {
      std::fprintf(stderr, "bad value for --%s: %s\n", key.c_str(), v.c_str());
      std::exit(2);
    }
    return out;
  }
};

/// Resolve --scenario for scan/daemon/serve. The scenario supplies the
/// defaults (topology sizing, faults, churn process); explicit CLI flags
/// still win, so `--scenario massacre --nodes 8` shrinks the massacre.
std::optional<scenario::ScenarioFile> scenario_from_args(const Args& args) {
  const std::string handle = args.str("scenario", "");
  if (handle.empty()) return std::nullopt;
  scenario::ScenarioFile s = scenario::load_scenario(handle);
  std::fprintf(stderr, "scenario '%s' (%s): %s\n", s.name.c_str(),
               s.origin.c_str(), s.summary.c_str());
  return s;
}

/// The scenario's fault clauses plus any --faults clauses, in that order,
/// in canonical grammar (what apply_fault_spec will parse).
std::string merged_fault_spec(const std::optional<scenario::ScenarioFile>& scn,
                              const Args& args) {
  const std::string extra = args.str("faults", "");
  const std::string base = scn.has_value() ? scn->fault_spec_string() : "";
  if (base.empty()) return extra;
  if (extra.empty()) return base;
  return base + ";" + extra;
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

int cmd_measure(const Args& args) {
  const auto relays = static_cast<std::size_t>(args.num("relays", 60));
  const int samples = static_cast<int>(args.num("samples", 200));
  const auto xi = static_cast<std::size_t>(args.num("x", 0));
  const auto yi = static_cast<std::size_t>(args.num("y", 1));
  scenario::TestbedOptions options;
  options.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  scenario::Testbed world = scenario::live_tor(relays, options);
  if (xi >= world.relay_count() || yi >= world.relay_count() || xi == yi) {
    std::fprintf(stderr, "x/y must be distinct indices below %zu\n",
                 world.relay_count());
    return 2;
  }
  meas::TingConfig cfg;
  cfg.samples = samples;
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

int cmd_scan(const Args& args) {
  const auto scn = scenario_from_args(args);
  const auto relays = static_cast<std::size_t>(
      args.num("relays", scn ? static_cast<long>(scn->relays) : 25));
  const auto nodes = static_cast<std::size_t>(
      args.num("nodes", scn ? static_cast<long>(scn->nodes) : 12));
  const int samples = static_cast<int>(args.num("samples", 200));
  const int parallel = static_cast<int>(args.num("parallel", 1));
  const int shards = static_cast<int>(args.num("shards", 1));
  const int cap = static_cast<int>(args.num("cap", 1));
  const std::string out = args.str("out", "matrix.csv");
  const std::string faults = merged_fault_spec(scn, args);
  // Measurement-plane optimizations, on by default (--no-* to disable).
  const bool use_half_cache = args.flag("half-cache", true);
  const bool adaptive = args.flag("adaptive-samples", true);
  const bool pipeline = args.flag("pipeline", true);
  // Crash safety and graceful degradation, on by default (--no-* to disable).
  const bool use_journal = args.flag("journal", true);
  const bool resume = args.flag("resume", false);
  const auto checkpoint_every =
      static_cast<std::size_t>(args.num("checkpoint-every", 25));
  meas::QuarantineOptions quarantine;
  quarantine.enabled = args.flag("quarantine", true);
  quarantine.threshold = static_cast<int>(args.num("quarantine-threshold", 3));
  quarantine.cooldown = Duration::seconds(args.num("quarantine-cooldown", 600));
  quarantine.max_windows =
      static_cast<int>(args.num("quarantine-max-windows", 2));
  if (parallel < 1 || cap < 1 || shards < 1) {
    std::fprintf(stderr, "--parallel, --cap, and --shards must be >= 1\n");
    return 2;
  }
  if (resume && !use_journal) {
    std::fprintf(stderr, "--resume needs the journal (drop --no-journal)\n");
    return 2;
  }
  scenario::TestbedOptions options;
  options.seed = static_cast<std::uint64_t>(
      args.num("seed", scn ? static_cast<long>(scn->seed) : 1));
  if (scn && scn->differential >= 0)
    options.differential_fraction = scn->differential;
  meas::TingConfig cfg;
  cfg.samples = samples;
  cfg.adaptive_samples = adaptive;

  // The half-circuit cache persists beside the matrix, so re-scans reuse
  // R_Cx measurements the same way they reuse fresh matrix entries. On
  // --resume the CSV is skipped: the journal restores the cache with exact
  // bit patterns (the CSV rounds to 6 significant digits, which would break
  // the deterministic mode's bit-identity guarantee).
  const std::string halves_path = out + ".halves.csv";
  meas::HalfCircuitCache half_cache;
  if (use_half_cache && !resume) {
    if (std::ifstream probe(halves_path); probe.good())
      half_cache = meas::HalfCircuitCache::load_csv(halves_path);
  }
  meas::HalfCircuitCache* half_cache_ptr =
      use_half_cache ? &half_cache : nullptr;

  // W worker worlds over one shared immutable topology, each with K
  // measurers. With --parallel 1 (the default) pairs are measured
  // deterministically, so the matrix is bit-identical for any --shards W;
  // with K > 1 each world's pool runs concurrently.
  scenario::ShardWorldOptions swo;
  swo.relays = relays;
  swo.scan_nodes = nodes;
  swo.testbed = options;
  swo.ting = cfg;
  swo.pool = static_cast<std::size_t>(parallel);
  swo.fault_spec = faults;
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
    meas::ScanJournal::Meta meta;
    meta.pair_seed = options.seed;
    meta.nodes = subset.size();
    journal = std::make_unique<meas::ScanJournal>(
        journal_path,
        resume ? meas::ScanJournal::Mode::kResume
               : meas::ScanJournal::Mode::kFresh,
        meta);
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
    journal->enable_checkpoints(out, use_half_cache ? halves_path : "",
                                checkpoint_every);
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
  scan_options.pair_seed = options.seed;
  scan_options.half_cache = half_cache_ptr;
  scan_options.pipeline_builds = pipeline;
  scan_options.journal = journal.get();
  scan_options.stop = &g_stop;
  scan_options.quarantine = quarantine;
  const meas::ScanReport report = scanner.scan(
      subset, scan_options,
      [](std::size_t done, std::size_t total, const meas::PairResult& r) {
        std::fprintf(stderr, "\r[%zu/%zu] last=%.1fms   ", done, total,
                     r.rtt_ms);
      });
  std::fprintf(stderr, "\n");
  matrix.save_csv(out);
  if (use_half_cache) half_cache.save_csv(halves_path);
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
  if (!faults.empty()) {
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
  // Clean finish: the CSV artifacts carry the full state, so the journal
  // has nothing left to protect.
  if (journal != nullptr) journal->remove_file();
  if (scn && scn->congestion.enabled) {
    const int adversary_rc = run_congestion_adversary(*scn);
    if (adversary_rc != 0) return adversary_rc;
  }
  return report.failed == 0 ? 0 : 1;
}

int cmd_daemon(const Args& args) {
  const auto scn = scenario_from_args(args);
  // --synthetic [N]: swap the cell-level testbed for the paper-scale
  // synthetic environment (scenario/synthetic_env.h); N is the consensus
  // size and defaults to the paper's ~6,000 relays.
  const bool synthetic = args.kv.contains("synthetic");
  const long synth_n = args.num("synthetic", 0);
  const auto relays = static_cast<std::size_t>(
      synthetic
          ? (synth_n > 1 ? synth_n : args.num("relays", 6000))
          : args.num("relays", scn ? static_cast<long>(scn->relays) : 20));
  const auto epochs = static_cast<std::size_t>(args.num("epochs", 6));
  const auto budget = static_cast<std::size_t>(args.num("budget", 0));
  const auto shards = static_cast<std::size_t>(args.num("shards", 1));
  const int samples = static_cast<int>(args.num("samples", 50));
  const double epoch_hours = args.real("epoch-hours", 1.0);
  const double ttl_hours = args.real("ttl-hours", 7 * 24.0);
  const double churn = args.real("churn", scn ? scn->churn_rate : 0.05);
  const double rejoin = args.real("rejoin", scn ? scn->rejoin_rate : 0.5);
  const double absent =
      args.real("absent", scn ? scn->initially_absent : 0.0);
  const double coverage_target = args.real("coverage", 0.99);
  const double noise = args.real("noise", 0.5);
  const double fail_rate = args.real("fail-rate", 0.0);
  const std::string out = args.str("out", "daemon.tingmx");
  const std::string csv_out = args.str("csv", "");
  const std::string faults = merged_fault_spec(scn, args);
  const bool resume = args.flag("resume", false);
  const bool use_half_cache = args.flag("half-cache", !synthetic);
  const bool adaptive = args.flag("adaptive-samples", true);
  const bool use_journal = args.flag("journal", true);
  const int quarantine_threshold =
      static_cast<int>(args.num("quarantine-threshold", 3));
  if (relays < 2 || epochs < 1 || shards < 1 || epoch_hours <= 0 ||
      ttl_hours <= 0) {
    std::fprintf(stderr, "daemon: bad sizing flags\n");
    return 2;
  }

  const auto seed = static_cast<std::uint64_t>(
      args.num("seed", scn ? static_cast<long>(scn->seed) : 1));
  std::unique_ptr<meas::DaemonEnvironment> env;
  char tag[256];
  if (synthetic) {
    scenario::SyntheticEnvOptions seo;
    seo.relays = relays;
    seo.testbed.seed = seed;
    seo.churn.seed = seed;
    seo.churn.churn_rate = churn;
    seo.churn.rejoin_rate = rejoin;
    seo.churn.initially_absent = absent;
    seo.noise_ms = args.real("noise", 0.5);
    seo.failure_rate = args.real("fail-rate", 0.0);
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
                  relays, churn, rejoin, absent, noise, fail_rate, samples);
  } else {
    scenario::DaemonWorldOptions dwo;
    dwo.relays = relays;
    dwo.testbed.seed = seed;
    if (scn && scn->differential >= 0)
      dwo.testbed.differential_fraction = scn->differential;
    dwo.ting.samples = samples;
    dwo.ting.adaptive_samples = adaptive;
    dwo.churn.seed = dwo.testbed.seed;
    dwo.churn.churn_rate = churn;
    dwo.churn.rejoin_rate = rejoin;
    dwo.churn.initially_absent = absent;
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
                  relays, churn, rejoin, absent, samples, adaptive ? 1 : 0,
                  use_half_cache ? 1 : 0, faults.c_str());
  }

  meas::DaemonOptions opt;
  opt.epochs = epochs;
  opt.epoch_interval = Duration::from_ms(epoch_hours * 3600e3);
  opt.ttl = Duration::from_ms(ttl_hours * 3600e3);
  opt.budget = budget;
  opt.coverage_target = coverage_target;
  opt.out = out;
  opt.resume = resume;
  opt.seed = seed;
  opt.half_cache = use_half_cache;
  opt.journal = use_journal;
  opt.stop = &g_stop;
  opt.engine.quarantine.enabled = args.flag("quarantine", true);
  opt.engine.quarantine.threshold = quarantine_threshold;
  opt.config_tag = tag;

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

  if (!csv_out.empty()) daemon.matrix().save_csv(csv_out);
  if (report.interrupted) {
    std::fprintf(stderr,
                 "interrupted at epoch %zu; journal and state kept — re-run "
                 "the same daemon command with --resume to continue\n",
                 report.epochs_completed);
    return 130;
  }
  std::printf("daemon: %zu epochs complete, %zu pairs stored (%.1f MB), "
              "final coverage %.2f%% (target %.0f%%) -> %s\n",
              report.epochs_completed, report.matrix_pairs,
              static_cast<double>(report.matrix_bytes) / 1e6,
              100 * report.final_coverage, 100 * coverage_target,
              out.c_str());
  return report.converged ? 0 : 1;
}

void print_circuit(const serve::PathServer::Circuit& c) {
  std::printf("  %7.1fms ", c.rtt_ms);
  for (std::size_t i = 0; i < c.relays.size(); ++i)
    std::printf("%s%s", i == 0 ? "" : " -> ", c.relays[i].short_name().c_str());
  std::printf("\n");
}

/// Load a matrix, publish it into a PathServer once, and answer one query.
int cmd_query(const Args& args) {
  serve::ServeOptions so;
  so.candidates_per_length =
      static_cast<std::size_t>(args.num("candidates", 2000));
  so.max_length = static_cast<std::size_t>(args.num("max-length", 6));
  so.seed = static_cast<std::uint64_t>(args.num("seed", 1));
  so.float32_snapshot = args.flag("float32", false);
  const long through = args.num("through", 0);
  const auto k = static_cast<std::size_t>(args.num("k", 5));
  const auto length = static_cast<std::size_t>(args.num("length", 3));
  const auto want = static_cast<std::size_t>(args.num("want", 5));
  const meas::RttMatrix matrix =
      meas::RttMatrix::load(args.str("matrix", "matrix.csv"));
  serve::PathServer server(so);
  server.publish(matrix);
  const auto st = server.state();
  const auto& nodes = st->snapshot.nodes();
  std::printf("serving %zu relays, %zu pairs (%.1f%% coverage, %s image, "
              "%.1f MB), %.0f%% of measured pairs have a TIV detour\n",
              st->snapshot.node_count(), st->snapshot.pair_count(),
              100 * st->snapshot.coverage(),
              st->snapshot.storage() == serve::SnapshotStorage::kFloat32
                  ? "float32"
                  : "float64",
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

  if (args.kv.contains("pair")) {
    long a = 0, b = 1;
    if (std::sscanf(args.kv.at("pair").c_str(), "%ld,%ld", &a, &b) != 2) {
      std::fprintf(stderr, "--pair wants i,j relay indices\n");
      return 2;
    }
    const auto* fa = node_at(a);
    const auto* fb = node_at(b);
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
  if (args.kv.contains("through")) {
    const auto* relay = node_at(through);
    if (relay == nullptr) return 2;
    const auto circuits = server.fastest_through(*relay, k);
    std::printf("fastest %zu 3-hop circuits with %s as middle:\n",
                circuits.size(), relay->short_name().c_str());
    for (const auto& c : circuits) print_circuit(c);
    return 0;
  }
  if (args.kv.contains("band")) {
    double lo = 0, hi = 0;
    if (std::sscanf(args.kv.at("band").c_str(), "%lf:%lf", &lo, &hi) != 2) {
      std::fprintf(stderr, "--band wants lo:hi in ms\n");
      return 2;
    }
    const auto circuits = server.circuits_in_band(length, lo, hi, want);
    std::printf("~%.3g circuits of length %zu in [%.0f, %.0f]ms; sampled:\n",
                server.options_in_band(length, lo, hi), length, lo, hi);
    for (const auto& c : circuits) print_circuit(c);
    return 0;
  }
  std::fprintf(stderr,
               "query wants one of --pair i,j | --through i [--k n] | "
               "--band lo:hi [--length l] [--want n]\n");
  return 2;
}

/// A daemon run with the serving layer attached: every epoch checkpoint
/// publishes a fresh snapshot + detour index while (in a deployment)
/// readers keep querying the previous one lock-free.
int cmd_serve(const Args& args) {
  const auto scn = scenario_from_args(args);
  const bool synthetic = args.kv.contains("synthetic");
  const long synth_n = args.num("synthetic", 0);
  const auto relays = static_cast<std::size_t>(
      synthetic
          ? (synth_n > 1 ? synth_n : args.num("relays", 6000))
          : args.num("relays", scn ? static_cast<long>(scn->relays) : 20));
  const auto epochs = static_cast<std::size_t>(args.num("epochs", 6));
  const auto budget = static_cast<std::size_t>(args.num("budget", 0));
  const auto shards = static_cast<std::size_t>(args.num("shards", 1));
  const int samples = static_cast<int>(args.num("samples", 50));
  const double epoch_hours = args.real("epoch-hours", 1.0);
  const double ttl_hours = args.real("ttl-hours", 7 * 24.0);
  const double churn = args.real("churn", scn ? scn->churn_rate : 0.05);
  const double rejoin = args.real("rejoin", scn ? scn->rejoin_rate : 0.5);
  const double absent =
      args.real("absent", scn ? scn->initially_absent : 0.0);
  const std::string faults = merged_fault_spec(scn, args);
  const std::string out = args.str("out", "daemon.tingmx");
  const bool resume = args.flag("resume", false);
  const auto candidates = static_cast<std::size_t>(args.num("candidates", 500));
  if (relays < 2 || epochs < 1 || shards < 1 || epoch_hours <= 0 ||
      ttl_hours <= 0) {
    std::fprintf(stderr, "serve: bad sizing flags\n");
    return 2;
  }

  const auto seed = static_cast<std::uint64_t>(
      args.num("seed", scn ? static_cast<long>(scn->seed) : 1));
  std::unique_ptr<meas::DaemonEnvironment> env;
  char tag[256];
  if (synthetic) {
    scenario::SyntheticEnvOptions seo;
    seo.relays = relays;
    seo.testbed.seed = seed;
    seo.churn.seed = seed;
    seo.churn.churn_rate = churn;
    seo.churn.rejoin_rate = rejoin;
    seo.churn.initially_absent = absent;
    seo.noise_ms = args.real("noise", 0.5);
    seo.failure_rate = args.real("fail-rate", 0.0);
    seo.samples = samples;
    env = std::make_unique<scenario::SyntheticDaemonEnvironment>(seo);
    std::snprintf(tag, sizeof(tag),
                  "synthetic=1;relays=%zu;churn=%.6f;rejoin=%.6f;"
                  "absent=%.6f;noise=%.6f;fail=%.6f;samples=%d",
                  relays, churn, rejoin, absent, seo.noise_ms,
                  seo.failure_rate, samples);
  } else {
    scenario::DaemonWorldOptions dwo;
    dwo.relays = relays;
    dwo.testbed.seed = seed;
    if (scn && scn->differential >= 0)
      dwo.testbed.differential_fraction = scn->differential;
    dwo.ting.samples = samples;
    dwo.ting.adaptive_samples = true;
    dwo.churn.seed = dwo.testbed.seed;
    dwo.churn.churn_rate = churn;
    dwo.churn.rejoin_rate = rejoin;
    dwo.churn.initially_absent = absent;
    dwo.fault_spec = faults;
    dwo.shards = shards;
    env = std::make_unique<scenario::TestbedDaemonEnvironment>(dwo);
    std::snprintf(tag, sizeof(tag),
                  "relays=%zu;churn=%.6f;rejoin=%.6f;absent=%.6f;samples=%d;"
                  "adaptive=%d;half=%d;faults=%s",
                  relays, churn, rejoin, absent, samples, 1, 1,
                  faults.c_str());
  }

  meas::DaemonOptions opt;
  opt.epochs = epochs;
  opt.epoch_interval = Duration::from_ms(epoch_hours * 3600e3);
  opt.ttl = Duration::from_ms(ttl_hours * 3600e3);
  opt.budget = budget;
  opt.out = out;
  opt.resume = resume;
  opt.seed = seed;
  opt.half_cache = args.flag("half-cache", !synthetic);
  opt.journal = args.flag("journal", true);
  opt.stop = &g_stop;
  opt.config_tag = tag;

  serve::ServeOptions so;
  so.candidates_per_length = candidates;
  so.seed = opt.seed;
  so.float32_snapshot = args.flag("float32", false);
  serve::PathServer server(so);
  opt.on_checkpoint = [&server, &opt](
                          const meas::RttMatrix& m,
                          const std::vector<dir::Fingerprint>&,
                          const std::vector<dir::Fingerprint>& changed,
                          const meas::EpochStats& s) {
    server.publish(m, s.epoch,
                   meas::ScanDaemon::epoch_clock(opt.epoch_interval, s.epoch),
                   changed);
    const auto st = server.state();
    std::printf("epoch %zu: published snapshot — %zu relays, %zu pairs "
                "(%.1f%% coverage, %s, %.1f MB), %.0f%% TIV, %zu changed "
                "relays\n",
                s.epoch, st->snapshot.node_count(),
                st->snapshot.pair_count(), 100 * st->snapshot.coverage(),
                st->snapshot.storage() == serve::SnapshotStorage::kFloat32
                    ? "float32"
                    : "float64",
                static_cast<double>(st->snapshot.memory_bytes()) / 1e6,
                100 * st->detours.tiv_fraction(), changed.size());
    std::fflush(stdout);
  };

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  meas::ScanDaemon daemon(*env, opt);
  const meas::DaemonReport report = daemon.run();

  if (report.interrupted) {
    std::fprintf(stderr, "interrupted at epoch %zu; re-run with --resume\n",
                 report.epochs_completed);
    return 130;
  }
  if (!server.ready()) {
    std::fprintf(stderr, "no epoch completed; nothing was published\n");
    return 1;
  }
  // Show the serving layer answering off the last published state.
  const auto st = server.state();
  const auto& nodes = st->snapshot.nodes();
  std::printf("%" PRIu64 " snapshots published; sample queries:\n",
              server.publishes());
  if (nodes.size() >= 2) {
    const auto detour = server.best_detour(nodes[0], nodes[1]);
    if (detour.has_value())
      std::printf("  detour %s <-> %s: %.1fms via %s%s\n",
                  nodes[0].short_name().c_str(), nodes[1].short_name().c_str(),
                  detour->detour_ms, detour->via.short_name().c_str(),
                  detour->tiv ? " (TIV)" : "");
    for (const auto& c : server.fastest_through(nodes[0], 3)) print_circuit(c);
  }
  return 0;
}

int cmd_convert(const Args& args) {
  const std::string in = args.str("matrix", "matrix.csv");
  const std::string csv_out = args.str("csv", "");
  const std::string bin_out = args.str("bin", "");
  const meas::RttMatrix matrix = meas::RttMatrix::load(in);
  if (!csv_out.empty()) matrix.save_csv(csv_out);
  if (!bin_out.empty()) matrix.save_bin(bin_out);
  std::printf("%s: %zu pairs over %zu relays%s%s%s%s\n", in.c_str(),
              matrix.size(), matrix.nodes().size(),
              csv_out.empty() ? "" : " -> ", csv_out.c_str(),
              bin_out.empty() ? "" : " -> ", bin_out.c_str());
  return 0;
}

int cmd_tiv(const Args& args) {
  const meas::RttMatrix matrix =
      meas::RttMatrix::load(args.str("matrix", "matrix.csv"));
  // One O(n³) detour-index pass yields the findings and the fraction
  // together (this used to run the full scan twice).
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

int cmd_deanon(const Args& args) {
  const int runs = static_cast<int>(args.num("runs", 300));
  const meas::RttMatrix matrix =
      meas::RttMatrix::load(args.str("matrix", "matrix.csv"));
  analysis::DeanonWorld world;
  world.nodes = matrix.nodes();
  world.matrix = &matrix;
  if (world.nodes.size() < 4) {
    std::fprintf(stderr, "matrix too small (need >= 4 nodes)\n");
    return 2;
  }
  struct Row {
    const char* name;
    analysis::Strategy strategy;
  };
  for (const Row& row :
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
          analysis::deanonymize(world, *c, row.strategy, prng).fraction_probed);
    }
    if (fr.empty()) {
      std::printf("%-18s no measurable circuit in %d runs (matrix too "
                  "sparse)\n",
                  row.name, runs);
      continue;
    }
    std::printf("%-18s median %.1f%% of nodes probed", row.name,
                100 * quantile(fr, 0.5));
    if (skipped > 0)
      std::printf("  (%d/%d runs skipped: unmeasured legs)", skipped, runs);
    std::printf("\n");
  }
  return 0;
}

int cmd_coords(const Args& args) {
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 2));
  const long percent = args.num("percent", 100);
  const meas::RttMatrix matrix =
      meas::RttMatrix::load(args.str("matrix", "matrix.csv"));
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

/// `ting scenario list | show <name|path> [--raw] | validate <name|path>`.
/// Positional, unlike the other commands: scenario names are the operands.
int cmd_scenario(int argc, char** argv) {
  const std::string action = argc >= 3 ? argv[2] : "list";
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
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: ting scenario list | show <name|path> [--raw] | "
                 "validate <name|path>\n");
    return 2;
  }
  const std::string target = argv[3];
  if (action == "show") {
    const bool raw = argc >= 5 && std::string(argv[4]) == "--raw";
    if (raw) {
      // Byte-exact text: the CI lint diffs this against the on-disk copy.
      if (const scenario::LibraryScenario* entry =
              scenario::find_scenario(target)) {
        std::fputs(entry->text.c_str(), stdout);
        return 0;
      }
      std::ifstream f(target);
      if (!f.good()) {
        std::fprintf(stderr, "unknown scenario or unreadable file: %s\n",
                     target.c_str());
        return 2;
      }
      std::string content((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
      std::fputs(content.c_str(), stdout);
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
  if (action == "validate") {
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
  std::fprintf(stderr, "unknown scenario action '%s' (list, show, validate)\n",
               action.c_str());
  return 2;
}

int cmd_coverage(const Args& args) {
  scenario::TimelineOptions options;
  options.days = static_cast<int>(args.num("days", 60));
  options.initial_relays = static_cast<std::size_t>(args.num("relays", 6400));
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

void usage() {
  std::fputs(
      "usage: ting <command> [--flag value ...]\n"
      "commands:\n"
      "  measure   measure one relay pair with Ting     (--relays --samples --x --y --seed)\n"
      "  scan      all-pairs scan to a CSV matrix       (--relays --nodes --samples --out --seed\n"
      "                                                  --parallel K --cap per-relay-circuits\n"
      "                                                  --shards W --faults SPEC\n"
      "                                                  --scenario name|file)\n"
      "  (--shards W [1] fans the pair list across W threads, each with its own\n"
      "   world of --parallel K [1] measurement hosts. K = 1 measures pairs\n"
      "   deterministically, so the output does not depend on W; K > 1 keeps\n"
      "   K pairs in flight per world, stable only for a fixed (W, K))\n"
      "  (scan optimizations, on by default: --half-cache memoizes R_Cx per\n"
      "   relay and persists it at <out>.halves.csv, --adaptive-samples stops\n"
      "   sampling once the running minimum plateaus, --pipeline prebuilds the\n"
      "   next pair's circuit while the current one samples [--parallel K > 1\n"
      "   only]; disable with --no-half-cache / --no-adaptive-samples /\n"
      "   --no-pipeline)\n"
      "  (crash safety, on by default: every resolved pair is fsync'd to\n"
      "   <out>.journal and the artifacts are checkpointed atomically every\n"
      "   --checkpoint-every pairs [25]; after a crash or SIGINT/SIGTERM,\n"
      "   re-run with --resume to continue from the journal; --no-journal\n"
      "   disables. --quarantine [on] benches a relay after\n"
      "   --quarantine-threshold [3] consecutive permanent failures for\n"
      "   --quarantine-cooldown seconds [600], deferring its pairs once\n"
      "   --quarantine-max-windows [2] windows are spent; --no-quarantine\n"
      "   disables)\n"
      "fault spec (clauses ';'-separated, see src/scenario/faults.h):\n"
      "  loss:<target>:<prob>[:<start_s>:<dur_s>]\n"
      "  degrade:<target>:<extra_ms>:<jitter_ms>[:<start_s>:<dur_s>]\n"
      "  crash:<target>:<start_s>:<dur_s>\n"
      "  churn:<events>:<start_s>:<period_s>:<down_s>\n"
      "  die:<target>[:<start_s>]\n"
      "  diurnal:<target>:<peak_ms>:<period_s>[:<steps>:<periods>]\n"
      "  flash:<target>:<start_s>:<dur_s>:<extra_ms>:<loss_prob>\n"
      "  (<target> = scan-node index or '*'; e.g. \"loss:*:0.05;churn:2:30:60:120\")\n"
      "  (--scenario loads a declarative hostile-network file — topology +\n"
      "   dynamics + adversaries — by library name or path; explicit flags\n"
      "   still override its defaults. See `ting scenario list` and\n"
      "   examples/scenarios/*.ting; format in src/scenario/scenario_file.h)\n"
      "  scenario  scenario library tooling             (list | show <name|path> [--raw] |\n"
      "                                                  validate <name|path>)\n"
      "  daemon    continuous scan service              (--relays --epochs --budget --ttl-hours\n"
      "                                                  --epoch-hours --churn --rejoin --absent\n"
      "                                                  --coverage --samples --shards\n"
      "                                                  --faults --seed --out --csv --resume\n"
      "                                                  --synthetic [N] --noise --fail-rate\n"
      "                                                  --scenario name|file)\n"
      "  (scans the whole consensus in epochs: each epoch applies churn, plans\n"
      "   a delta worklist [new pairs first, then TTL-expired oldest-first, cut\n"
      "   to --budget pairs], measures it deterministically, and checkpoints the\n"
      "   binary matrix at <out>, state at <out>.state, journal at\n"
      "   <out>.journal, half cache at <out>.halves. SIGTERM/kill at any point\n"
      "   resumes into the same epoch with --resume, byte-identically for\n"
      "   churn-only runs. exit: 0 converged to --coverage, 1 not converged,\n"
      "   130 interrupted)\n"
      "  (--synthetic [N] answers pairs from the topology's base-RTT table plus\n"
      "   deterministic jitter [--noise ms] and faults [--fail-rate p] — no\n"
      "   circuit simulation, so daemon logic runs at the paper's full\n"
      "   consensus: ting daemon --synthetic 6000 --budget 500000. Each epoch\n"
      "   is planned off the store's per-relay presence bitsets and freshness\n"
      "   index, with no per-pair hash probe, rather than by an all-pairs\n"
      "   census; --no-journal trades pair-level crash resume for epoch-level\n"
      "   to skip per-record fsyncs)\n"
      "  serve     daemon + path-selection serving      (--relays --epochs --budget --churn\n"
      "                                                  --samples --shards --candidates\n"
      "                                                  --out --resume --synthetic [N]\n"
      "                                                  --float32 --scenario name|file)\n"
      "  (runs the continuous scan with the serving layer attached: each epoch\n"
      "   checkpoint publishes an immutable matrix snapshot + detour index via\n"
      "   one atomic pointer swap, so path queries never lock and never see a\n"
      "   half-updated epoch; --float32 halves the dense snapshot image)\n"
      "  query     path-selection queries off a matrix  (--matrix [--float32], then one of:\n"
      "                                                  --pair i,j | --through i --k n |\n"
      "                                                  --band lo:hi --length l --want n)\n"
      "  convert   matrix format conversion             (--matrix in [--csv out] [--bin out])\n"
      "  tiv       triangle-inequality report           (--matrix)\n"
      "  deanon    deanonymization strategy comparison  (--matrix --runs)\n"
      "  coords    Vivaldi-embedding comparison         (--matrix --percent --seed)\n"
      "  coverage  consensus timeline + host classes    (--days --relays)\n"
      "  (query/convert/tiv/deanon/coords accept scan CSVs and daemon binary\n"
      "   stores alike)\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    // `scenario` takes positional operands (names), not --flag pairs.
    if (cmd == "scenario") return cmd_scenario(argc, argv);
    const Args args = Args::parse(argc, argv, 2);
    if (cmd == "measure") return cmd_measure(args);
    if (cmd == "scan") return cmd_scan(args);
    if (cmd == "daemon") return cmd_daemon(args);
    if (cmd == "serve") return cmd_serve(args);
    if (cmd == "query") return cmd_query(args);
    if (cmd == "convert") return cmd_convert(args);
    if (cmd == "tiv") return cmd_tiv(args);
    if (cmd == "deanon") return cmd_deanon(args);
    if (cmd == "coords") return cmd_coords(args);
    if (cmd == "coverage") return cmd_coverage(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
