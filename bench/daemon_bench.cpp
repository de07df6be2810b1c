// Continuous scan daemon under consensus churn: coverage convergence and
// the cost profile of delta epochs vs the initial full-mesh epoch.
//
// A testbed consensus churns 5% per epoch while the daemon chases it with
// delta worklists. Prints the per-epoch series (churn, planned pairs,
// wall clock, coverage), the delta-vs-full work ratio, and the matrix
// store's lookup/merge microcosts; writes BENCH_daemon.json for CI to
// archive alongside BENCH_scan.json.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "scenario/churn_feed.h"
#include "scenario/daemon_world.h"
#include "scenario/synthetic_env.h"
#include "ting/daemon.h"
#include "ting/delta_scan.h"
#include "ting/rtt_matrix.h"
#include "util/rng.h"

namespace {

/// Peak resident set in MB (ru_maxrss is KB on Linux).
double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// TING_SCALE_RELAYS pins the paper-scale leg's consensus size (CI sets
/// 6000 regardless of TING_BENCH_SCALE); unset, it scales like the rest.
std::size_t scale_relays() {
  const char* s = std::getenv("TING_SCALE_RELAYS");
  if (s != nullptr && std::atol(s) >= 2)
    return static_cast<std::size_t>(std::atol(s));
  return static_cast<std::size_t>(ting::bench::scaled(6000, 400));
}

}  // namespace

int main() {
  using namespace ting;
  using namespace ting::bench;
  header("Scan daemon", "delta epochs against a 5%-churn consensus");

  scenario::DaemonWorldOptions wo;
  wo.relays = static_cast<std::size_t>(scaled(60, 20));
  wo.testbed.seed = 430;
  wo.testbed.differential_fraction = 0;
  wo.ting.samples = scaled(50, 10);
  wo.churn.seed = 431;
  wo.churn.churn_rate = 0.05;
  wo.churn.rejoin_rate = 0.5;
  wo.churn.initially_absent = 0.1;  // some relays join mid-run
  scenario::TestbedDaemonEnvironment env(wo);

  meas::DaemonOptions d;
  d.epochs = static_cast<std::size_t>(scaled(6, 3));
  d.out = "BENCH_daemon.tingmx";
  d.seed = 430;
  d.config_tag = "daemon-bench";

  std::printf("# relays %zu, %.0f%% churn/epoch, samples/circuit %d, "
              "%zu epochs\n",
              wo.relays, wo.churn.churn_rate * 100, wo.ting.samples, d.epochs);
  std::printf("# epoch\tnodes\tjoin\tleave\tplanned\tnew\texpired\tfresh"
              "\twall_s\tcoverage\n");

  meas::ScanDaemon daemon(env, d);
  auto t0 = std::chrono::steady_clock::now();
  std::size_t first_epoch_pairs = 0, delta_pairs = 0, delta_epochs = 0;
  double first_epoch_wall = 0, delta_wall = 0;
  const meas::DaemonReport report = daemon.run([&](const meas::EpochStats& e) {
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();
    t0 = t1;
    std::printf("%zu\t%zu\t%zu\t%zu\t%zu\t%zu\t%zu\t%zu\t%.2f\t%.4f\n",
                e.epoch, e.nodes, e.joined, e.left, e.plan.pairs.size(),
                e.plan.new_pairs, e.plan.expired_pairs, e.plan.fresh_pairs,
                wall, e.coverage.coverage());
    if (e.epoch == 0) {
      first_epoch_pairs = e.plan.pairs.size();
      first_epoch_wall = wall;
    } else {
      delta_pairs += e.plan.pairs.size();
      delta_wall += wall;
      ++delta_epochs;
    }
  });

  const double mean_delta_pairs =
      delta_epochs > 0 ? static_cast<double>(delta_pairs) /
                             static_cast<double>(delta_epochs)
                       : 0;
  const double delta_work_ratio =
      first_epoch_pairs > 0 ? mean_delta_pairs /
                                  static_cast<double>(first_epoch_pairs)
                            : 0;
  std::printf("# converged %s, final coverage %.4f, %zu pairs stored\n",
              report.converged ? "yes" : "NO", report.final_coverage,
              report.matrix_pairs);
  std::printf("# delta epochs average %.1f pairs vs %zu full-mesh "
              "(x%.3f of the initial work)\n",
              mean_delta_pairs, first_epoch_pairs, delta_work_ratio);

  // ---- matrix store microcosts ---------------------------------------------
  // Lookup + merge throughput on a daemon-scale pair set (the operations
  // the planner does once per pair per epoch).
  double lookup_ns = 0, merge_ms = 0;
  std::size_t micro_pairs = 0;
  {
    const std::size_t n = static_cast<std::size_t>(scaled(300, 100));
    std::vector<dir::Fingerprint> fps;
    Rng rng(99);
    for (std::size_t i = 0; i < n; ++i) {
      char hex[48];
      std::snprintf(hex, sizeof(hex), "%040zx",
                    static_cast<std::size_t>(rng.next_u64()));
      fps.push_back(dir::Fingerprint::from_hex(hex));
    }
    meas::RttMatrix m;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        m.set(fps[i], fps[j], 1.0 + static_cast<double>(i + j),
              TimePoint::from_ns(static_cast<std::int64_t>(i * n + j)), 1);
    micro_pairs = m.size();

    const auto t_look = std::chrono::steady_clock::now();
    std::size_t hits = 0;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j)
        if (m.contains(fps[i], fps[j])) ++hits;
    lookup_ns = std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - t_look)
                    .count() /
                static_cast<double>(hits);

    meas::RttMatrix other;
    for (std::size_t i = 0; i < n; ++i)
      other.set(fps[i], fps[(i + 1) % n], 2.0,
                TimePoint::from_ns(static_cast<std::int64_t>(i + 1)), 1);
    const auto t_merge = std::chrono::steady_clock::now();
    m.merge(other);
    merge_ms = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - t_merge)
                   .count();
    std::printf("# sparse micro: %zu pairs, lookup %.0f ns/pair, "
                "merge(+%zu) %.2f ms\n",
                micro_pairs, lookup_ns, other.size(), merge_ms);
  }

  // ---- paper-scale leg -----------------------------------------------------
  // The full-consensus regime (§5.3: ~6,000 relays, ~18M pairs) against the
  // synthetic environment: (1) two budgeted daemon epochs end to end,
  // (2) a full-mesh RttMatrix fill profiling memory_bytes at 18M
  // entries, (3) plan_delta vs the all-pairs reference census on identical
  // state — the speedup and plan-equality numbers gate-scale enforces
  // (plan_full_ms times the census, plan_incremental_ms plan_delta).
  const std::size_t sr = scale_relays();
  const double rss_before_mb = peak_rss_mb();
  double scale_construct_ms = 0, scale_epoch_wall_s = 0, fill_wall_s = 0;
  double plan_full_ms = 0, plan_incr_ms = 0;
  std::size_t scale_planned = 0, fill_pairs = 0, scale_matrix_bytes = 0;
  std::size_t plan_pairs = 0;
  bool planner_identical = false;
  double daemon_rss_mb = 0;
  const std::size_t scale_budget = 200000;
  {
    scenario::SyntheticEnvOptions seo;
    seo.relays = sr;
    seo.testbed.seed = 440;
    seo.churn.seed = 441;
    seo.churn.churn_rate = 0.01;
    seo.churn.rejoin_rate = 0.5;
    seo.churn.initially_absent = 0.02;
    scenario::SyntheticDaemonEnvironment senv(seo);
    scale_construct_ms = senv.world_construct_ms();
    std::printf("# scale: %zu relays (%zu pairs), topology %.0f ms\n", sr,
                sr * (sr - 1) / 2, scale_construct_ms);

    // (1) Budgeted daemon epochs: journal off (epoch-granular resume; the
    // per-record fsync would dominate), half cache off (no circuits here).
    meas::DaemonOptions sd;
    sd.epochs = 2;
    sd.budget = scale_budget;
    sd.out = "BENCH_scale.tingmx";
    sd.seed = 440;
    sd.config_tag = "daemon-bench-scale";
    sd.half_cache = false;
    sd.journal = false;
    sd.coverage_target = 0;  // budgeted epochs can't converge; not the point
    meas::ScanDaemon sdaemon(senv, sd);
    const auto t_epochs = std::chrono::steady_clock::now();
    const meas::DaemonReport sreport = sdaemon.run();
    scale_epoch_wall_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t_epochs)
                             .count();
    for (const auto& e : sreport.epochs) scale_planned += e.plan.pairs.size();
    daemon_rss_mb = peak_rss_mb();
    std::printf("# scale daemon: %zu epochs, %zu planned, %zu stored, "
                "%.2f s, store %.1f MB, rss %.0f MB\n",
                sreport.epochs_completed, scale_planned, sreport.matrix_pairs,
                scale_epoch_wall_s,
                static_cast<double>(sreport.matrix_bytes) / 1e6,
                daemon_rss_mb);

    // (2) Full-mesh fill: the 18M-entry memory profile. One epoch stamp for
    // every entry, exactly like a converged daemon store.
    scenario::ChurnFeed feed(senv.topology().all_fingerprints(), seo.churn);
    feed.advance(0);
    const std::vector<dir::Fingerprint> nodes0 = feed.members();
    const TimePoint t1 = TimePoint::from_ns(1000);
    meas::RttMatrix full;
    full.reserve_pairs(nodes0.size() * (nodes0.size() - 1) / 2);
    const auto t_fill = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < nodes0.size(); ++i)
      for (std::size_t j = i + 1; j < nodes0.size(); ++j)
        full.set(nodes0[i], nodes0[j], 1.0 + static_cast<double>(i + j), t1,
                 1);
    fill_wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t_fill)
                      .count();
    fill_pairs = full.size();
    scale_matrix_bytes = full.memory_bytes();
    std::printf("# scale fill: %zu entries in %.2f s, %.1f MB "
                "(%.0f bytes/pair)\n",
                fill_pairs, fill_wall_s,
                static_cast<double>(scale_matrix_bytes) / 1e6,
                static_cast<double>(scale_matrix_bytes) /
                    static_cast<double>(fill_pairs));

    // (3) Planner head-to-head on identical state: advance one churn epoch
    // past the full mesh, then time an inline copy of the all-pairs census
    // (one entry() probe per node pair: the planner the store's presence
    // rows replaced, kept as tests/delta_scan_test.cpp's reference) against
    // plan_delta over the same (matrix, nodes, clock), and require
    // identical plans. TTL keeps the mesh fresh, so the only yield is the
    // joined relays' new pairs — the planner's steady-state regime.
    const meas::DeltaPlanOptions popt{Duration::seconds(3600), 0};
    const TimePoint now = TimePoint::from_ns(t1.ns() + 1000);
    meas::ConsensusDeltaTracker tracker;
    tracker.observe(nodes0);
    feed.advance(1);
    const std::vector<dir::Fingerprint> nodes1 = feed.members();
    const auto delta = tracker.observe(nodes1);

    const auto t_full = std::chrono::steady_clock::now();
    meas::DeltaPlan p_full;
    {
      std::vector<meas::ExpiredCandidate> expired;
      for (std::size_t i = 0; i < nodes1.size(); ++i) {
        for (std::size_t j = i + 1; j < nodes1.size(); ++j) {
          const meas::RttMatrix::Entry* e = full.entry(nodes1[i], nodes1[j]);
          if (e == nullptr) {
            ++p_full.new_pairs;
            p_full.pairs.emplace_back(i, j);
          } else if (now - e->measured_at <= popt.ttl) {
            ++p_full.fresh_pairs;
          } else {
            expired.push_back(meas::ExpiredCandidate{i, j, e->measured_at});
          }
        }
      }
      p_full.expired_pairs = expired.size();
      std::sort(expired.begin(), expired.end(), meas::expired_before);
      for (const meas::ExpiredCandidate& c : expired)
        p_full.pairs.emplace_back(c.i, c.j);
    }
    plan_full_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t_full)
                       .count();
    const auto t_incr = std::chrono::steady_clock::now();
    const meas::DeltaPlan p_incr = meas::plan_delta(full, nodes1, now, popt);
    plan_incr_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t_incr)
                       .count();
    planner_identical =
        p_full.pairs == p_incr.pairs && p_full.new_pairs == p_incr.new_pairs &&
        p_full.expired_pairs == p_incr.expired_pairs &&
        p_full.fresh_pairs == p_incr.fresh_pairs &&
        p_full.dropped_over_budget == p_incr.dropped_over_budget;
    plan_pairs = p_full.pairs.size();
    std::printf("# scale planner: %zu joined -> %zu pairs; census %.1f ms, "
                "plan_delta %.2f ms (x%.0f), plans %s\n",
                delta.joined.size(), plan_pairs, plan_full_ms, plan_incr_ms,
                plan_incr_ms > 0 ? plan_full_ms / plan_incr_ms : 0,
                planner_identical ? "identical" : "DIVERGED");
  }
  const double final_rss_mb = peak_rss_mb();
  const double planner_speedup =
      plan_incr_ms > 0 ? plan_full_ms / plan_incr_ms : 0;
  std::printf("# scale rss: before %.0f MB, after daemon %.0f MB, "
              "peak %.0f MB\n",
              rss_before_mb, daemon_rss_mb, final_rss_mb);

  std::FILE* json = std::fopen("BENCH_daemon.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"benchmark\": \"scan_daemon\",\n"
                 "  \"relays\": %zu,\n"
                 "  \"churn_rate\": %.3f,\n"
                 "  \"epochs\": %zu,\n"
                 "  \"converged\": %s,\n"
                 "  \"final_coverage\": %.4f,\n"
                 "  \"matrix_pairs\": %zu,\n"
                 "  \"first_epoch_pairs\": %zu,\n"
                 "  \"first_epoch_wall_s\": %.3f,\n"
                 "  \"mean_delta_epoch_pairs\": %.1f,\n"
                 "  \"delta_work_ratio\": %.4f,\n"
                 "  \"sparse_lookup_ns_per_pair\": %.1f,\n"
                 "  \"sparse_merge_ms\": %.3f,\n"
                 "  \"sparse_micro_pairs\": %zu,\n"
                 "  \"scale\": {\n"
                 "    \"relays\": %zu,\n"
                 "    \"construct_ms\": %.1f,\n"
                 "    \"daemon_epochs\": 2,\n"
                 "    \"daemon_budget\": %zu,\n"
                 "    \"daemon_planned_pairs\": %zu,\n"
                 "    \"daemon_wall_s\": %.3f,\n"
                 "    \"daemon_rss_mb\": %.1f,\n"
                 "    \"fill_pairs\": %zu,\n"
                 "    \"fill_wall_s\": %.3f,\n"
                 "    \"matrix_memory_mb\": %.1f,\n"
                 "    \"matrix_bytes_per_pair\": %.1f,\n"
                 "    \"plan_pairs\": %zu,\n"
                 "    \"plan_full_ms\": %.3f,\n"
                 "    \"plan_incremental_ms\": %.3f,\n"
                 "    \"planner_speedup\": %.1f,\n"
                 "    \"planner_identical\": %s,\n"
                 "    \"peak_rss_mb\": %.1f\n"
                 "  }\n"
                 "}\n",
                 wo.relays, wo.churn.churn_rate, d.epochs,
                 report.converged ? "true" : "false", report.final_coverage,
                 report.matrix_pairs, first_epoch_pairs, first_epoch_wall,
                 mean_delta_pairs, delta_work_ratio, lookup_ns, merge_ms,
                 micro_pairs, sr, scale_construct_ms, scale_budget,
                 scale_planned, scale_epoch_wall_s, daemon_rss_mb, fill_pairs,
                 fill_wall_s, static_cast<double>(scale_matrix_bytes) / 1e6,
                 static_cast<double>(scale_matrix_bytes) /
                     static_cast<double>(fill_pairs > 0 ? fill_pairs : 1),
                 plan_pairs, plan_full_ms, plan_incr_ms, planner_speedup,
                 planner_identical ? "true" : "false", final_rss_mb);
    std::fclose(json);
    std::printf("# wrote BENCH_daemon.json\n");
  }
  // Exit is keyed to the testbed leg's convergence plus the scale leg's
  // plan equality (a divergence is a correctness bug, not a perf miss).
  return report.converged && planner_identical ? 0 : 1;
}
