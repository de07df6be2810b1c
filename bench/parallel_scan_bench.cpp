// Scan-engine scaling: virtual time of an all-pairs scan as the engine's
// pool grows — the "parallelizes trivially" observation of §4.5
// quantified. Prints virtual hours and speedup vs the one-at-a-time K=1
// scan for K in {1, 2, 4, 8}, plus the engine's admission/retry
// statistics, and the overhead a faulted network (packet loss + consensus
// churn) adds at K=4.
//
// A final leg benches the engine's WALL-CLOCK scaling across worlds (real
// threads, one world per worker over a shared topology): a 50-node
// all-pairs scan at W=1 vs 4, verifying the merged matrices are
// bit-identical, and writes the result as machine-readable BENCH_scan.json
// for CI to archive.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

#include "bench_common.h"
#include "ting/half_circuit_cache.h"
#include "scenario/faults.h"
#include "scenario/shard_world.h"
#include "simnet/fault_plan.h"
#include "ting/scan_journal.h"
#include "ting/scheduler.h"

int main() {
  using namespace ting;
  using namespace ting::bench;
  header("Scan scaling", "all-pairs virtual time vs pool size K");

  scenario::TestbedOptions options;
  options.seed = 420;
  options.differential_fraction = 0;
  scenario::Testbed tb = scenario::live_tor(
      static_cast<std::size_t>(scaled(40, 25)), options);

  const std::size_t kNodes = static_cast<std::size_t>(scaled(24, 12));
  meas::TingConfig cfg;
  cfg.samples = scaled(100, 20);
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < std::min(kNodes, tb.relay_count()); ++i)
    nodes.push_back(tb.fp(i));

  meas::TingMeasurer sequential_measurer(tb.ting(), cfg);
  meas::RttMatrix seq_matrix;
  meas::ParallelScanner sequential({&sequential_measurer}, seq_matrix);
  const meas::ScanReport seq = sequential.scan(nodes);
  const double seq_hours = seq.virtual_time.sec() / 3600.0;

  std::printf("# nodes\t%zu\tpairs\t%zu\tsamples/circuit\t%d\n", nodes.size(),
              seq.pairs_total, cfg.samples);
  std::printf("# K\tvirtual_hours\tspeedup\tmax_in_flight\tper_relay_peak"
              "\tretries\n");
  std::printf("1\t%.2f\t%.2f\t%zu\t%zu\t%zu\n", seq_hours, 1.0,
              seq.max_in_flight, seq.max_per_relay_in_flight, seq.retries);

  for (const std::size_t k : {2u, 4u, 8u}) {
    std::vector<std::unique_ptr<meas::TingMeasurer>> owned;
    std::vector<meas::TingMeasurer*> pool;
    for (meas::MeasurementHost* host : tb.measurement_pool(k)) {
      owned.push_back(std::make_unique<meas::TingMeasurer>(*host, cfg));
      pool.push_back(owned.back().get());
    }
    meas::RttMatrix matrix;
    meas::ParallelScanner scanner(pool, matrix);
    meas::ScanOptions scan_options;
    scan_options.max_age = Duration::seconds(0);  // always remeasure
    const meas::ScanReport r = scanner.scan(nodes, scan_options);
    const double hours = r.virtual_time.sec() / 3600.0;
    std::printf("%zu\t%.2f\t%.2f\t%zu\t%zu\t%zu\n", k, hours,
                seq_hours / hours, r.max_in_flight,
                r.max_per_relay_in_flight, r.retries);
  }
  std::printf("# engine phase split at K=1: build %.2fh, sample %.2fh\n",
              seq.time_building.sec() / 3600.0,
              seq.time_sampling.sec() / 3600.0);

  // The same K=4 scan under faults: 3% loss everywhere plus two consensus
  // leave/rejoin cycles. Quantifies what the retry/re-resolution machinery
  // costs relative to a clean scan.
  {
    simnet::FaultPlan plan(tb.net());
    scenario::apply_fault_spec(
        scenario::FaultSpec::parse("loss:*:0.03;churn:2:30:60:120"), tb,
        nodes, plan, options.seed);
    std::vector<std::unique_ptr<meas::TingMeasurer>> owned;
    std::vector<meas::TingMeasurer*> pool;
    for (meas::MeasurementHost* host : tb.measurement_pool(4)) {
      owned.push_back(std::make_unique<meas::TingMeasurer>(*host, cfg));
      pool.push_back(owned.back().get());
    }
    meas::RttMatrix matrix;
    meas::ParallelScanner scanner(
        {meas::ScanWorld{.measurers = pool,
                         .live_consensus = &tb.consensus(),
                         .fault_plan = &plan}},
        matrix);
    meas::ScanOptions scan_options;
    scan_options.max_age = Duration::seconds(0);
    scan_options.attempts_per_pair = 6;
    scan_options.churn_requeue_delay = Duration::seconds(20);
    const meas::ScanReport r = scanner.scan(nodes, scan_options);
    std::printf("# K=4 under faults (3%% loss, churn): %.2fh, %zu/%zu "
                "measured, retries %zu, churned re-resolved %zu, failures "
                "t/p/c %zu/%zu/%zu\n",
                r.virtual_time.sec() / 3600.0, r.measured, r.pairs_total,
                r.retries, r.churn_reresolved, r.failed_transient,
                r.failed_permanent, r.failed_churned);
  }

  // ---- measurement-plane optimizations: cache + adaptive + pipeline ---------
  // A 20-node faulted scan on the engine at K=1 (the paper's own
  // one-pair-at-a-time configuration), cold baseline vs all optimizations
  // on. Reports throughput (pairs per virtual hour), the circuits-built
  // ratio, and the worst per-pair estimate deviation the optimizations
  // introduce. Pinned at 20 nodes / 40 relays / 200 samples regardless of
  // TING_BENCH_SCALE: adaptive stopping needs a budget above its 120-echo
  // plateau, and the CI regression gate compares this ratio against the
  // committed full-size baseline.
  //
  // Deviation methodology: two independently-evolving faulted scans differ
  // by >1 ms even when BOTH are cold (pair order alone shifts which pairs
  // meet a fault window, and relay load history shifts the attainable
  // minima), so comparing the cold and optimized scans above would measure
  // scan-replay noise, not the optimizations. The deviation leg instead
  // uses the deterministic per-pair replay (ScanOptions::deterministic with
  // the world's reseed hook): every pair's estimate is a pure function
  // of (world seed, pair_seed, pair), so a cold replay and a
  // cached+adaptive replay differ by exactly what the optimizations change
  // and nothing else.
  double opt_speedup = 0, opt_circuit_ratio = 0, opt_max_dev_ms = 0;
  std::size_t opt_pairs = 0, base_circuits = 0, opt_circuits = 0;
  std::size_t opt_half_hits = 0, opt_samples_saved = 0;
  double base_pairs_per_hour = 0, opt_pairs_per_hour = 0;
  {
    const std::size_t kOptNodes = 20, kOptRelays = 40;
    meas::TingConfig base_cfg;
    base_cfg.samples = 200;
    meas::TingConfig opt_cfg = base_cfg;
    opt_cfg.adaptive_samples = true;

    struct Leg {
      meas::RttMatrix matrix;
      meas::ScanReport report;
    };
    const auto run = [&](const meas::TingConfig& cfg, bool optimized) {
      scenario::TestbedOptions wopt;
      wopt.seed = 422;
      wopt.differential_fraction = 0;
      scenario::Testbed world = scenario::live_tor(kOptRelays, wopt);
      std::vector<dir::Fingerprint> subset;
      for (std::size_t i = 0; i < std::min(kOptNodes, world.relay_count()); ++i)
        subset.push_back(world.fp(i));
      simnet::FaultPlan plan(world.net());
      scenario::apply_fault_spec(
          scenario::FaultSpec::parse("loss:*:0.03;churn:2:30:60:120"), world,
          subset, plan, wopt.seed);

      meas::TingMeasurer measurer(world.ting(), cfg);
      Leg leg;
      meas::ParallelScanner scanner(
          {meas::ScanWorld{.measurers = {&measurer},
                           .live_consensus = &world.consensus(),
                           .fault_plan = &plan}},
          leg.matrix);
      meas::ScanOptions so;
      so.attempts_per_pair = 6;
      so.churn_requeue_delay = Duration::seconds(20);
      meas::HalfCircuitCache halves;
      so.half_cache = optimized ? &halves : nullptr;
      so.pipeline_builds = optimized;
      leg.report = scanner.scan(subset, so);
      return leg;
    };

    // Deterministic replay of the same faulted world: strictly serial, one
    // world reseed per probe, so the cold and optimized replays sample
    // identical jitter streams and their difference is purely
    // optimization-induced (see methodology note above).
    const auto run_det = [&](const meas::TingConfig& cfg, bool cached) {
      scenario::TestbedOptions wopt;
      wopt.seed = 422;
      wopt.differential_fraction = 0;
      scenario::Testbed world = scenario::live_tor(kOptRelays, wopt);
      std::vector<dir::Fingerprint> subset;
      for (std::size_t i = 0; i < std::min(kOptNodes, world.relay_count()); ++i)
        subset.push_back(world.fp(i));
      simnet::FaultPlan plan(world.net());
      scenario::apply_fault_spec(
          scenario::FaultSpec::parse("loss:*:0.03;churn:2:30:60:120"), world,
          subset, plan, wopt.seed);

      meas::TingMeasurer measurer(world.ting(), cfg);
      Leg leg;
      meas::ParallelScanner scanner(
          {meas::ScanWorld{.measurers = {&measurer},
                           .reseed = [&](std::uint64_t s) {
                             world.reseed_stochastics(s);
                           },
                           .live_consensus = &world.consensus(),
                           .fault_plan = &plan}},
          leg.matrix);
      meas::ScanOptions so;
      so.attempts_per_pair = 6;
      so.churn_requeue_delay = Duration::seconds(20);
      so.deterministic = true;
      so.pair_seed = wopt.seed;
      meas::HalfCircuitCache halves;
      so.half_cache = cached ? &halves : nullptr;
      leg.report = scanner.scan(subset, so);
      return leg;
    };

    const Leg base = run(base_cfg, false);
    const Leg opt = run(opt_cfg, true);
    const Leg det_cold = run_det(base_cfg, false);
    const Leg det_opt = run_det(opt_cfg, true);
    const auto pairs_per_hour = [](const meas::ScanReport& r) {
      const double h = r.virtual_time.sec() / 3600.0;
      return h > 0 ? static_cast<double>(r.measured) / h : 0.0;
    };
    base_pairs_per_hour = pairs_per_hour(base.report);
    opt_pairs_per_hour = pairs_per_hour(opt.report);
    opt_speedup =
        base_pairs_per_hour > 0 ? opt_pairs_per_hour / base_pairs_per_hour : 0;
    base_circuits = base.report.circuits_built;
    opt_circuits = opt.report.circuits_built;
    opt_circuit_ratio =
        base_circuits > 0
            ? static_cast<double>(opt_circuits) / static_cast<double>(base_circuits)
            : 0;
    opt_pairs = base.report.pairs_total;
    opt_half_hits = opt.report.half_cache_hits;
    opt_samples_saved = opt.report.samples_saved;
    const std::vector<dir::Fingerprint> measured = det_cold.matrix.nodes();
    for (std::size_t i = 0; i < measured.size(); ++i)
      for (std::size_t j = i + 1; j < measured.size(); ++j) {
        const auto b = det_cold.matrix.rtt(measured[i], measured[j]);
        const auto o = det_opt.matrix.rtt(measured[i], measured[j]);
        if (b.has_value() && o.has_value())
          opt_max_dev_ms = std::max(opt_max_dev_ms, std::abs(*b - *o));
      }

    std::printf("# optimizations at K=1, %zu nodes under faults (cache + "
                "adaptive + pipeline vs cold):\n",
                kOptNodes);
    std::printf("# leg\tpairs/vhour\tcircuits\thalf_hits\tsamples_saved\n");
    std::printf("cold\t%.1f\t%zu\t%zu\t%zu\n", base_pairs_per_hour,
                base_circuits, base.report.half_cache_hits,
                base.report.samples_saved);
    std::printf("opt\t%.1f\t%zu\t%zu\t%zu\n", opt_pairs_per_hour, opt_circuits,
                opt.report.half_cache_hits, opt.report.samples_saved);
    std::printf("# throughput x%.2f, circuits ratio %.2f, max estimate "
                "deviation %.3f ms (deterministic per-pair replay, "
                "cached+adaptive vs cold)\n",
                opt_speedup, opt_circuit_ratio, opt_max_dev_ms);
  }

  // ---- W worlds: wall-clock scaling + bit-identity --------------------------
  {
    scenario::ShardWorldOptions swo;
    swo.relays = static_cast<std::size_t>(scaled(50, 16));
    swo.scan_nodes = swo.relays;  // all-pairs over the whole testbed
    swo.testbed.seed = 421;
    swo.testbed.differential_fraction = 0;
    swo.ting.samples = scaled(100, 20);
    const scenario::TopologyPtr topology = scenario::shard_topology(swo);
    const std::vector<dir::Fingerprint> sharded_nodes =
        scenario::shard_scan_nodes(swo, topology);
    meas::ScanOptions det;
    det.deterministic = true;
    det.pair_seed = swo.testbed.seed;

    // Wall clock covers building the W worlds (over the shared topology)
    // and scanning with them, as `ting scan --shards W` pays it; the
    // construction share is reported separately.
    double scan_w4_construct_ms = 0;
    const auto run = [&](std::size_t shards, meas::RttMatrix& m,
                         meas::ScanReport& r, const meas::ScanOptions& so) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto worlds = scenario::make_shard_worlds(swo, topology, shards);
      if (shards == 4)
        scan_w4_construct_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
      meas::ParallelScanner scanner(scenario::scan_worlds(worlds), m);
      r = scanner.scan(sharded_nodes, so);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    meas::RttMatrix m1, m4;
    meas::ScanReport r1, r4;
    const double wall1 = run(1, m1, r1, det);
    const double wall4 = run(4, m4, r4, det);
    const bool identical = m1.to_csv() == m4.to_csv();
    const double speedup = wall4 > 0 ? wall1 / wall4 : 0;
    const unsigned cpus = std::thread::hardware_concurrency();

    // Journaling overhead: the identical W=1 scan with the write-ahead
    // journal attached — one fsync'd record per resolved pair and per
    // half-circuit store. Compares wall clock against the unjournaled run
    // above and checks the crash-safety machinery costs no correctness
    // (the journaled matrix must still be bit-identical).
    double wall_journal = 0;
    std::size_t journal_fsyncs = 0, journal_pair_records = 0;
    bool journal_identical = false;
    {
      meas::ScanJournal::Meta jm;
      jm.pair_seed = swo.testbed.seed;
      jm.nodes = sharded_nodes.size();
      meas::ScanJournal journal("BENCH_scan.journal",
                                meas::ScanJournal::Mode::kFresh, jm);
      meas::RttMatrix mj;
      meas::ScanReport rj;
      meas::ScanOptions so = det;
      so.journal = &journal;
      wall_journal = run(1, mj, rj, so);
      journal_fsyncs = journal.fsyncs();
      journal_pair_records = journal.pairs().size();
      journal_identical =
          rj.failed == 0 && mj.to_csv() == m1.to_csv();
      journal.remove_file();
    }
    const double journal_overhead =
        wall1 > 0 ? wall_journal / wall1 : 0;

    // ---- world construction: shared immutable topology vs legacy clones ---
    // Times what building W worlds costs before the first probe: the legacy
    // clone-per-world baseline (built inline here) re-derives the full
    // topology (identity keygen, geography, base-RTT table) for every
    // world, the shared path instantiates only the mutable half over a
    // topology built once — and needed anyway, to derive the scan-node
    // list. The one-time build is reported separately. Fixed at 100 relays
    // / 4 worlds regardless of TING_BENCH_SCALE: keygen cost grows with
    // relay count, and the gate needs a stable operating point.
    double legacy_construct_ms = 0, shared_construct_ms = 0;
    double topology_build_ms = 0, construct_speedup = 0, reseed_us = 0;
    const std::size_t kConstructRelays = 100, kConstructShards = 4;
    {
      scenario::ShardWorldOptions cwo;
      cwo.relays = kConstructRelays;
      cwo.scan_nodes = kConstructRelays;
      cwo.testbed.seed = 421;
      cwo.testbed.differential_fraction = 0;

      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t s = 0; s < kConstructShards; ++s)
        scenario::TestbedShardWorld legacy(cwo, scenario::shard_topology(cwo));
      legacy_construct_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

      const auto t1 = std::chrono::steady_clock::now();
      const scenario::TopologyPtr topology = scenario::shard_topology(cwo);
      topology_build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t1)
                              .count();
      const auto t2 = std::chrono::steady_clock::now();
      const auto worlds =
          scenario::make_shard_worlds(cwo, topology, kConstructShards);
      shared_construct_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t2)
                                .count();
      construct_speedup = shared_construct_ms > 0
                              ? legacy_construct_ms / shared_construct_ms
                              : 0;

      // Reseed microbench: the deterministic engine reseeds the world before
      // every pair replay, so this is a per-pair cost on the hot path.
      const std::size_t kReseeds = 200;
      const auto t3 = std::chrono::steady_clock::now();
      for (std::size_t n = 0; n < kReseeds; ++n)
        worlds[0]->world().reseed_stochastics(0x5eed + n);
      reseed_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t3)
                      .count() /
                  static_cast<double>(kReseeds);
    }

    std::printf("# W worlds (wall clock, deterministic): %zu nodes, "
                "%zu pairs, %u host cpus\n",
                sharded_nodes.size(), r1.pairs_total, cpus);
    std::printf("# W\twall_seconds\tspeedup\tmeasured\tfailed\n");
    std::printf("1\t%.2f\t%.2f\t%zu\t%zu\n", wall1, 1.0, r1.measured,
                r1.failed);
    std::printf("4\t%.2f\t%.2f\t%zu\t%zu\n", wall4, speedup, r4.measured,
                r4.failed);
    std::printf("# merged matrices bit-identical across W: %s\n",
                identical ? "yes" : "NO");
    std::printf("# journaling overhead at W=1: %.2fs vs %.2fs (x%.3f), "
                "%zu fsyncs, %zu pair records, bit-identical: %s\n",
                wall_journal, wall1, journal_overhead, journal_fsyncs,
                journal_pair_records, journal_identical ? "yes" : "NO");
    std::printf("# world construction (%zu relays x %zu shards): legacy "
                "clones %.1f ms, shared-topology worlds %.1f ms (x%.1f, "
                "one-time topology build %.1f ms), reseed %.1f us; W=4 scan "
                "spent %.1f ms constructing, %zu reseeds\n",
                kConstructRelays, kConstructShards, legacy_construct_ms,
                shared_construct_ms, construct_speedup, topology_build_ms,
                reseed_us, scan_w4_construct_ms, r4.reseeds);
    if (cpus < 4)
      std::printf("# (only %u cpu(s) available: wall-clock speedup is "
                  "core-bound, not engine-bound)\n",
                  cpus);

    std::FILE* json = std::fopen("BENCH_scan.json", "w");
    if (json != nullptr) {
      std::fprintf(
          json,
          "{\n"
          "  \"benchmark\": \"sharded_scan\",\n"
          "  \"nodes\": %zu,\n"
          "  \"pairs\": %zu,\n"
          "  \"samples_per_circuit\": %d,\n"
          "  \"host_cpus\": %u,\n"
          "  \"shards_1_wall_s\": %.3f,\n"
          "  \"shards_4_wall_s\": %.3f,\n"
          "  \"speedup_4_vs_1\": %.3f,\n"
          "  \"bit_identical\": %s,\n"
          "  \"measured\": %zu,\n"
          "  \"failed\": %zu,\n"
          "  \"optimizations\": {\n"
          "    \"leg\": \"20-node faulted scan at K=1, cold vs "
          "cache+adaptive+pipeline\",\n"
          "    \"pairs\": %zu,\n"
          "    \"baseline_pairs_per_vhour\": %.2f,\n"
          "    \"optimized_pairs_per_vhour\": %.2f,\n"
          "    \"throughput_speedup\": %.3f,\n"
          "    \"baseline_circuits_built\": %zu,\n"
          "    \"optimized_circuits_built\": %zu,\n"
          "    \"circuits_built_ratio\": %.3f,\n"
          "    \"half_cache_hits\": %zu,\n"
          "    \"samples_saved\": %zu,\n"
          "    \"max_estimate_deviation_ms\": %.4f,\n"
          "    \"deviation_method\": \"deterministic per-pair replay "
          "(world reseed per probe): cached+adaptive vs cold on identical "
          "jitter streams\"\n"
          "  },\n"
          "  \"journaling\": {\n"
          "    \"leg\": \"W=1 sharded scan, write-ahead journal on vs off\",\n"
          "    \"wall_off_s\": %.3f,\n"
          "    \"wall_on_s\": %.3f,\n"
          "    \"overhead_ratio\": %.3f,\n"
          "    \"fsyncs\": %zu,\n"
          "    \"pair_records\": %zu,\n"
          "    \"bit_identical_with_journal\": %s\n"
          "  },\n"
          "  \"world_construction\": {\n"
          "    \"leg\": \"%zu-relay topology x %zu shard worlds, legacy "
          "clone-per-shard vs shared immutable topology\",\n"
          "    \"relays\": %zu,\n"
          "    \"shards\": %zu,\n"
          "    \"legacy_clone_ms\": %.3f,\n"
          "    \"shared_topology_ms\": %.3f,\n"
          "    \"topology_build_once_ms\": %.3f,\n"
          "    \"construct_speedup\": %.3f,\n"
          "    \"reseed_us\": %.3f,\n"
          "    \"scan_w4_construct_ms\": %.3f,\n"
          "    \"scan_w4_reseeds\": %zu\n"
          "  }\n"
          "}\n",
          sharded_nodes.size(), r1.pairs_total, swo.ting.samples, cpus, wall1,
          wall4, speedup, identical ? "true" : "false", r4.measured, r4.failed,
          opt_pairs, base_pairs_per_hour, opt_pairs_per_hour, opt_speedup,
          base_circuits, opt_circuits, opt_circuit_ratio, opt_half_hits,
          opt_samples_saved, opt_max_dev_ms, wall1, wall_journal,
          journal_overhead, journal_fsyncs, journal_pair_records,
          journal_identical ? "true" : "false", kConstructRelays,
          kConstructShards, kConstructRelays, kConstructShards,
          legacy_construct_ms, shared_construct_ms, topology_build_ms,
          construct_speedup, reseed_us, scan_w4_construct_ms, r4.reseeds);
      std::fclose(json);
      std::printf("# wrote BENCH_scan.json\n");
    }
  }
  return 0;
}
