#include "scenario/synthetic_env.h"

#include <algorithm>
#include <chrono>

#include "ting/scan_journal.h"
#include "util/assert.h"
#include "util/rng.h"

namespace ting::scenario {

SyntheticDaemonEnvironment::SyntheticDaemonEnvironment(
    const SyntheticEnvOptions& options)
    : options_(options) {
  TING_CHECK(options_.relays >= 2);
  const auto construct_start = std::chrono::steady_clock::now();
  topology_ = SharedTopology::live_tor(options_.relays, options_.testbed);
  world_construct_ms_ = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - construct_start)
                            .count();
  const std::vector<dir::Fingerprint> fps = topology_->all_fingerprints();
  host_of_.reserve(fps.size() * 2);
  for (std::size_t i = 0; i < fps.size(); ++i) host_of_.emplace(fps[i], i + 1);
  feed_ = std::make_unique<ChurnFeed>(fps, options_.churn);
}

void SyntheticDaemonEnvironment::advance_epoch(std::size_t epoch) {
  // Membership is all that exists here — no directories to project the
  // events onto.
  feed_->advance(epoch);
}

std::vector<dir::Fingerprint> SyntheticDaemonEnvironment::nodes() {
  // ChurnFeed::members() is construction order filtered by membership — the
  // same stable relative order the testbed environment reports, so the two
  // backends plan the same index pairs.
  return feed_->members();
}

double SyntheticDaemonEnvironment::base_rtt_ms(
    const dir::Fingerprint& x, const dir::Fingerprint& y) const {
  auto ix = host_of_.find(x);
  auto iy = host_of_.find(y);
  TING_CHECK_MSG(ix != host_of_.end() && iy != host_of_.end(),
                 "synthetic env: unknown relay fingerprint");
  return topology_->base_rtt_table()->at(ix->second, iy->second);
}

meas::ScanReport SyntheticDaemonEnvironment::scan_pairs(
    const std::vector<dir::Fingerprint>& nodes,
    const meas::ParallelScanner::PairList& pairs,
    meas::RttMatrix& epoch_matrix, const meas::ScanOptions& options,
    const meas::ScanProgress& progress) {
  meas::ScanReport report;
  report.pairs_total = pairs.size();
  std::size_t done = 0;
  for (const auto& [i, j] : pairs) {
    if (options.stop != nullptr &&
        options.stop->load(std::memory_order_relaxed)) {
      report.interrupted = true;
      break;
    }
    TING_CHECK(i < nodes.size() && j < nodes.size());
    const dir::Fingerprint& x = nodes[i];
    const dir::Fingerprint& y = nodes[j];

    meas::PairResult r;
    r.x = x;
    r.y = y;

    // Journal-recovered pairs (a resumed epoch pre-seeds epoch_matrix) are
    // served from the cache, mirroring the engines' is_fresh skip.
    if (epoch_matrix.is_fresh(x, y, TimePoint{}, options.max_age)) {
      const meas::RttMatrix::Entry* e = epoch_matrix.entry(x, y);
      r.ok = true;
      r.from_cache = true;
      r.rtt_ms = e->rtt_ms;
      r.cxy.ok = true;
      r.cxy.samples_taken = e->samples;
      ++report.from_cache;
      ++done;
      if (progress) progress(done, report.pairs_total, r);
      continue;
    }

    // Pure per-pair draw: the same (pair_seed, x, y) mixing the
    // deterministic engines reseed with, so outcomes are independent of
    // plan order, epoch re-entry, and process boundaries.
    Rng rng(meas::pair_reseed(options.pair_seed, x, y));
    if (options_.failure_rate > 0 && rng.chance(options_.failure_rate)) {
      r.ok = false;
      r.error = "synthetic fault";
      r.error_class = meas::ErrorClass::kTransient;
      ++report.failed;
      ++report.failed_transient;
      report.failed_pairs.push_back(
          meas::FailedPair{x, y, r.error_class, r.error});
      report.retries +=
          static_cast<std::size_t>(std::max(0, options.attempts_per_pair - 1));
      if (options.journal != nullptr) {
        meas::ScanJournal::PairRecord rec;
        rec.a = x;
        rec.b = y;
        rec.ok = false;
        rec.attempts = options.attempts_per_pair;
        rec.error_class = r.error_class;
        rec.error = r.error;
        options.journal->record_pair(rec);
      }
    } else {
      const double est = base_rtt_ms(x, y) + rng.uniform(0.0, options_.noise_ms);
      r.ok = true;
      r.rtt_ms = est;
      r.cxy.ok = true;
      r.cxy.min_rtt_ms = est;
      r.cxy.samples_taken = options_.samples;
      // Zero timestamp, like the deterministic engines: the daemon stamps
      // results with its epoch clock at absorb time.
      epoch_matrix.set(x, y, est, TimePoint{}, options_.samples);
      ++report.measured;
      if (options.journal != nullptr) {
        meas::ScanJournal::PairRecord rec;
        rec.a = x;
        rec.b = y;
        rec.ok = true;
        rec.attempts = 1;
        rec.rtt_ms = est;
        rec.measured_at = TimePoint{};
        rec.samples = options_.samples;
        options.journal->record_pair(rec);
      }
    }
    ++done;
    if (progress) progress(done, report.pairs_total, r);
  }
  report.interrupted_pairs = report.pairs_total - done;
  report.interrupted = report.interrupted || report.interrupted_pairs > 0;
  return report;
}

}  // namespace ting::scenario
