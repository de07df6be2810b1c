// churn_under_scan: run a parallel all-pairs scan while the consensus
// churns underneath it and relay links degrade — the conditions a real
// multi-day Ting scan of the live network faces (§4.2/§4.6).
//
// A fault plan removes relays from the directory mid-scan (they rejoin a
// couple of minutes later) and adds packet loss on every scan node. The
// scan classifies each failure (transient / permanent / churned), retries
// per class — churned pairs wait for a fresh consensus and re-resolve the
// relay before requeueing — and reports per-class counters plus the fault
// events that fired.
//
// Usage: churn_under_scan [n_relays] [pool_size]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "scenario/faults.h"
#include "scenario/testbed.h"
#include "simnet/fault_plan.h"
#include "ting/measurer.h"
#include "ting/rtt_matrix.h"
#include "ting/scheduler.h"

int main(int argc, char** argv) {
  using namespace ting;
  const std::size_t n = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20;
  const std::size_t pool_size =
      argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4;
  if (n < 4 || n > 200 || pool_size < 1) {
    std::fprintf(stderr, "usage: churn_under_scan [n_relays 4-200] [pool]\n");
    return 2;
  }

  scenario::TestbedOptions options;
  options.seed = 77;
  scenario::Testbed world = scenario::live_tor(n, options);
  std::vector<dir::Fingerprint> nodes = world.all_fingerprints();

  // 5% loss everywhere, one relay crashing for a minute, and three
  // consensus leave/rejoin cycles starting 30 s into the scan.
  simnet::FaultPlan plan(world.net());
  const auto spec = scenario::FaultSpec::parse(
      "loss:*:0.05;crash:1:40:60;churn:3:30:90:150");
  scenario::apply_fault_spec(spec, world, nodes, plan, options.seed);

  meas::TingConfig config;
  config.samples = 10;
  std::vector<std::unique_ptr<meas::TingMeasurer>> measurers;
  std::vector<meas::TingMeasurer*> pool;
  for (meas::MeasurementHost* host : world.measurement_pool(pool_size)) {
    measurers.push_back(std::make_unique<meas::TingMeasurer>(*host, config));
    pool.push_back(measurers.back().get());
  }

  // The world the engine drives: the pool, plus the live consensus churned
  // relays are re-resolved against and the fault plan it annotates.
  meas::RttMatrix matrix;
  meas::ParallelScanner scanner({meas::ScanWorld{.measurers = pool,
                                                 .live_consensus =
                                                     &world.consensus(),
                                                 .fault_plan = &plan}},
                                matrix);
  meas::ScanOptions scan_options;
  scan_options.attempts_per_pair = 4;
  scan_options.churn_requeue_delay = Duration::seconds(30);

  std::printf("scanning %zu relays (%zu pairs) with K=%zu under faults...\n",
              n, n * (n - 1) / 2, pool_size);
  const meas::ScanReport report = scanner.scan(nodes, scan_options);

  std::printf("\nfault events during the scan:\n");
  for (const auto& e : report.fault_events)
    std::printf("  @%7.1fs  %s\n", e.at.sec(), e.what.c_str());

  std::printf("\nmeasured %zu/%zu pairs in %.1f virtual hours "
              "(%zu retries, in-flight peak %zu)\n",
              report.measured, report.pairs_total,
              report.virtual_time.sec() / 3600.0, report.retries,
              report.max_in_flight);
  std::printf("failures by class: %zu transient, %zu permanent, %zu churned; "
              "%zu churned pairs re-resolved against the live consensus\n",
              report.failed_transient, report.failed_permanent,
              report.failed_churned, report.churn_reresolved);
  for (const auto& f : report.failed_pairs)
    std::printf("  failed [%s] %s <-> %s: %s\n",
                meas::to_string(f.error_class), f.a.short_name().c_str(),
                f.b.short_name().c_str(), f.error.c_str());

  // A churn-tolerant scan should still cover the overwhelming majority of
  // the matrix: relays that left the consensus came back and were
  // re-measured on a later attempt.
  const double coverage = static_cast<double>(report.measured) /
                          static_cast<double>(report.pairs_total);
  std::printf("\ncoverage: %.1f%%\n", 100.0 * coverage);
  return coverage >= 0.9 ? 0 : 1;
}
