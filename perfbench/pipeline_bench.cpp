// Pipeline benchmark: runs one workload of the scan -> daemon (-> serve)
// pipeline in this process, through public APIs only, checks its outputs
// and writes one JSON result. perfbench/run.py builds and drives it;
// perfbench/NOTES.md describes the workloads, metrics and steadiness rules.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --dir DIR --out RESULT.json [--trace-out SPANS.json]
//                  [--size toy] [--corrupt 1]
//
// Epoch phases are seen by wrapping the DaemonEnvironment (advance_epoch,
// nodes, scan_pairs) and by the daemon's checkpoint hook. Exit status: 0
// when every correctness check passed, 1 when one failed, 2 on bad usage.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "probes.h"
#include "scenario/daemon_world.h"
#include "scenario/synthetic_env.h"
#include "serve/path_server.h"
#include "serve/snapshot.h"
#include "ting/daemon.h"
#include "ting/sparse_matrix.h"
#include "trace.h"
#include "util/rng.h"

namespace {

using namespace ting;
using perfbench::Clock;
using perfbench::seconds_between;
using perfbench::Tracer;

// ---- command line -----------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 5;
  bool trace = false;
  bool toy = false;
  bool corrupt = false;
  std::string dir;
  std::string out;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0))
        return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "toy") return std::nullopt;
      a.toy = value == "toy";
    } else if (flag == "--corrupt") {
      a.corrupt = value == "1";
    } else if (flag == "--dir") {
      a.dir = value;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.dir.empty() || a.out.empty())
    return std::nullopt;
  return a;
}

// ---- workloads --------------------------------------------------------------

/// Everything that defines a workload; the run's seed changes none of it
/// (it picks the daemon, query, check and probe streams).
struct Spec {
  std::string name;
  bool testbed = false;  ///< cell-level testbed worlds (else synthetic)
  bool serve = false;    ///< PathServer publish per epoch + query phase
  std::size_t relays = 0;
  std::size_t shards = 1;
  int samples = 50;
  double churn = 0;
  double absent = 0;
  std::size_t epochs = 0;
  std::size_t budget = 0;
  double ttl_hours = 7 * 24.0;
  bool half_cache = false;
  double coverage_target = 0;
  std::size_t setup_reps = 1;
};

/// Seed of the topology and churn history. Workloads fix it, so every run
/// sees the same network and the same joins and leaves; the run's seed
/// varies the measurement randomness and the query stream.
constexpr std::uint64_t kWorldSeed = 1;
/// The CLI defaults every workload shares: rejoin rate, synthetic jitter
/// (uniform in [0, kNoiseMs)) and `ting serve`'s candidates per length.
constexpr double kRejoinRate = 0.5;
constexpr double kNoiseMs = 0.5;
constexpr std::size_t kCandidates = 500;

std::optional<Spec> make_spec(const std::string& name, bool toy) {
  Spec s;
  s.name = name;
  if (name == "testbed-scan") {
    // `ting daemon` defaults on 50 live-Tor-like relays, two shard worlds.
    s.testbed = true;
    s.relays = toy ? 12 : 50;
    s.shards = 2;
    s.samples = toy ? 10 : 50;
    s.churn = 0.05;
    s.absent = 0.10;
    s.epochs = toy ? 3 : 8;
    s.budget = toy ? 40 : 400;
    s.ttl_hours = 2;
    s.half_cache = true;
    s.coverage_target = 0.95;
    s.setup_reps = toy ? 3 : 15;
  } else if (name == "daemon-3k") {
    // The CI perf-scale configuration (budgeted epochs, no serving) at half
    // the paper's consensus; see NOTES.md for why not 6,000.
    s.relays = toy ? 300 : 3000;
    s.churn = 0.01;
    s.absent = 0.02;
    s.epochs = toy ? 3 : 6;
    s.budget = toy ? 4000 : 200000;
    s.setup_reps = toy ? 2 : 3;
  } else if (name == "serve-1k") {
    // `ting serve --synthetic 1000` defaults, no budget.
    s.serve = true;
    s.relays = toy ? 40 : 1000;
    s.churn = 0.05;
    s.absent = 0.05;
    s.epochs = toy ? 3 : 6;
    s.setup_reps = toy ? 2 : 5;
  } else {
    return std::nullopt;
  }
  return s;
}

enum Stream : std::uint64_t {
  kTopology = 1,
  kChurn,
  kDaemon,
  kQueries,
  kChecks,
  kProbes
};

std::uint64_t derive(std::uint64_t seed, Stream stream) {
  return mix64(seed ^ mix64(0x9E3779B97F4A7C15ULL * stream));
}

// ---- epoch phase marks ------------------------------------------------------

/// Wall-clock boundaries of one epoch, taken at the environment calls and
/// the checkpoint hook. Untraced runs keep only advance_in and hook_out.
struct EpochMarks {
  Clock::time_point advance_in, advance_out, nodes_out, scan_in, scan_out,
      hook_in, snapshot_out, hook_out;
};

class MeteredEnvironment final : public meas::DaemonEnvironment {
 public:
  MeteredEnvironment(meas::DaemonEnvironment& inner, bool traced)
      : inner_(inner), traced_(traced) {}

  void advance_epoch(std::size_t epoch) override {
    marks_.emplace_back();
    marks_.back().advance_in = Clock::now();
    inner_.advance_epoch(epoch);
    if (traced_) marks_.back().advance_out = Clock::now();
  }
  std::vector<dir::Fingerprint> nodes() override {
    std::vector<dir::Fingerprint> n = inner_.nodes();
    if (traced_ && !marks_.empty()) marks_.back().nodes_out = Clock::now();
    return n;
  }
  meas::ScanReport scan_pairs(const std::vector<dir::Fingerprint>& nodes,
                              const meas::ParallelScanner::PairList& pairs,
                              meas::RttMatrix& epoch_matrix,
                              const meas::ScanOptions& options,
                              const meas::ScanProgress& progress) override {
    if (traced_) marks_.back().scan_in = Clock::now();
    meas::ScanReport r =
        inner_.scan_pairs(nodes, pairs, epoch_matrix, options, progress);
    if (traced_) marks_.back().scan_out = Clock::now();
    return r;
  }

  std::vector<EpochMarks>& marks() { return marks_; }

 private:
  meas::DaemonEnvironment& inner_;
  bool traced_;
  std::vector<EpochMarks> marks_;
};

// ---- small helpers ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, k == 0 ? 0 : k - 1)];
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t get_u64le(const std::string& s, std::size_t off) {
  std::uint64_t v = 0;
  for (std::size_t b = 8; b-- > 0;)
    v = (v << 8) | static_cast<unsigned char>(s[off + b]);
  return v;
}

/// One record of the store's TINGSMX1 image.
struct StoredPair {
  const dir::Fingerprint* a = nullptr;
  const dir::Fingerprint* b = nullptr;
  double rtt_ms = 0;
};

/// Decode the store image against the topology's relays (20-byte ids).
std::vector<StoredPair> decode_store(
    const std::string& bin, const std::vector<dir::Fingerprint>& relays,
    std::string& error) {
  std::unordered_map<std::string, const dir::Fingerprint*> by_id;
  for (const dir::Fingerprint& fp : relays)
    by_id.emplace(std::string(fp.bytes().begin(), fp.bytes().end()), &fp);
  constexpr std::size_t kRecord = meas::SparseRttMatrix::kBinRecordSize;
  std::vector<StoredPair> out;
  if (bin.size() < 16) {
    error = "store image shorter than its header";
    return out;
  }
  const std::uint64_t count = get_u64le(bin, 8);
  if (bin.size() != 16 + count * kRecord) {
    error = "store image size disagrees with its record count";
    return out;
  }
  out.reserve(count);
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::size_t off = 16 + r * kRecord;
    const auto a = by_id.find(bin.substr(off, 20));
    const auto b = by_id.find(bin.substr(off + 20, 20));
    if (a == by_id.end() || b == by_id.end()) {
      error = "store holds a relay the topology does not know";
      return {};
    }
    const std::uint64_t bits = get_u64le(bin, off + 40);
    double rtt = 0;
    std::memcpy(&rtt, &bits, sizeof rtt);
    out.push_back(StoredPair{a->second, b->second, rtt});
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// ---- results ----------------------------------------------------------------

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Result {
  std::vector<std::pair<std::string, std::string>> params;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::map<std::string, std::size_t> probe_ops;
  std::vector<Check> checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double loop_s = 0;

  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

template <typename Map>
std::string json_object(const Map& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + json_number(static_cast<double>(v));
  }
  return out + "}";
}

std::string result_json(const Result& res) {
  std::string params = "{";
  for (const auto& [k, v] : res.params) {
    if (params.size() > 1) params += ", ";
    params += json_string(k) + ": " + json_string(v);
  }
  std::string checks = "[";
  for (const Check& c : res.checks) {
    if (checks.size() > 1) checks += ", ";
    checks += "{\"name\": " + json_string(c.name) + ", \"ok\": " +
              (c.ok ? "true" : "false") + ", \"detail\": " +
              json_string(c.detail) + "}";
  }
  return "{\"correct\": " + std::string(res.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(res.attempted) +
         ", \"failed\": " + std::to_string(res.failed) +
         ", \"loop_s\": " + json_number(res.loop_s) + ", \"params\": " +
         params + "}, \"e2e\": " + json_object(res.e2e) +
         ", \"layers\": " + json_object(res.layers) +
         ", \"probe_ops\": " + json_object(res.probe_ops) +
         ", \"checks\": " + checks + "]}\n";
}

// ---- queries ----------------------------------------------------------------

enum class Query { kRtt, kDetour, kBand, kThrough };

/// Closed-loop queries against the served state, from one client thread.
/// The mix: every round an rtt and a best_detour, a band query 1 round in
/// 4, fastest_through(k=3) 1 round in 20. Endpoints come from a ring drawn
/// uniformly from the final snapshot before timing.
class QueryClient {
 public:
  QueryClient(const serve::PathServer& server,
              const meas::SparseRttMatrix& store, std::uint64_t seed)
      : server_(server) {
    const auto& nodes = server.state()->snapshot.nodes();
    Rng rng(seed);
    ring_.resize(kRing);
    for (Endpoints& e : ring_) {
      const auto i = static_cast<std::size_t>(rng.next_below(nodes.size()));
      std::size_t j = i;
      while (j == i) j = static_cast<std::size_t>(rng.next_below(nodes.size()));
      e.a = nodes[i];
      e.b = nodes[j];
      e.held = store.contains(e.a, e.b);
    }
  }

  /// Mix rounds [first, first + count); returns the queries issued.
  std::size_t mix(std::size_t first, std::size_t count) {
    std::size_t issued = 0;
    for (std::size_t r = first; r < first + count; ++r) {
      issued += 2;
      one(Query::kRtt, r);
      one(Query::kDetour, r);
      if (r % 4 == 0) {
        ++issued;
        one(Query::kBand, r);
      }
      if (r % 20 == 0) {
        ++issued;
        one(Query::kThrough, r);
      }
    }
    return issued;
  }

  /// One query of one kind. A query fails when it throws, or when it
  /// returns no RTT for a pair the store holds.
  void one(Query kind, std::size_t r) {
    const Endpoints& e = ring_[r % kRing];
    try {
      switch (kind) {
        case Query::kRtt:
          if (!server_.rtt(e.a, e.b).has_value() && e.held) ++failed_;
          break;
        case Query::kDetour:
          if (!server_.best_detour(e.a, e.b).has_value() && e.held) ++failed_;
          break;
        case Query::kBand:
          answers_ += server_.circuits_in_band(3, 50.0, 250.0, 3).size();
          break;
        case Query::kThrough:
          answers_ += server_.fastest_through(e.a, 3).size();
          break;
      }
    } catch (const std::exception&) {
      ++failed_;
    }
  }

  std::size_t failed() const { return failed_; }

 private:
  static constexpr std::size_t kRing = 1 << 16;
  struct Endpoints {
    dir::Fingerprint a, b;
    bool held = false;
  };
  const serve::PathServer& server_;
  std::vector<Endpoints> ring_;
  std::size_t failed_ = 0;
  std::size_t answers_ = 0;  ///< circuits returned; keeps answers in use
};

// ---- the run ----------------------------------------------------------------

/// One workload's world: exactly one of the two environments is set.
struct World {
  scenario::DaemonWorldOptions testbed_options;
  std::unique_ptr<scenario::TestbedDaemonEnvironment> testbed;
  std::unique_ptr<scenario::SyntheticDaemonEnvironment> synthetic;

  meas::DaemonEnvironment& env() {
    if (testbed) return *testbed;
    return *synthetic;
  }
  std::vector<dir::Fingerprint> relays() const {
    return testbed ? testbed->world().all_fingerprints()
                   : synthetic->topology().all_fingerprints();
  }
};

/// Construct the environment spec.setup_reps times (never two at once) and
/// keep the last; returns each construction's wall time.
std::vector<double> set_up(const Spec& spec, Tracer& tracer, World& world) {
  scenario::DaemonWorldOptions& dwo = world.testbed_options;
  dwo.relays = spec.relays;
  dwo.testbed.seed = derive(kWorldSeed, kTopology);
  dwo.ting.samples = spec.samples;
  dwo.ting.adaptive_samples = true;
  dwo.churn.seed = derive(kWorldSeed, kChurn);
  dwo.churn.churn_rate = spec.churn;
  dwo.churn.rejoin_rate = kRejoinRate;
  dwo.churn.initially_absent = spec.absent;
  dwo.shards = spec.shards;
  scenario::SyntheticEnvOptions seo;
  seo.relays = spec.relays;
  seo.testbed.seed = dwo.testbed.seed;
  seo.churn = dwo.churn;
  seo.noise_ms = kNoiseMs;
  seo.samples = spec.samples;

  std::vector<double> times;
  for (std::size_t rep = 0; rep < spec.setup_reps; ++rep) {
    world.testbed.reset();
    world.synthetic.reset();
    const Clock::time_point t0 = Clock::now();
    if (spec.testbed) {
      world.testbed = std::make_unique<scenario::TestbedDaemonEnvironment>(dwo);
    } else {
      world.synthetic = std::make_unique<scenario::SyntheticDaemonEnvironment>(seo);
    }
    const Clock::time_point t1 = Clock::now();
    tracer.add("setup", t0, t1, -1, -1, "rep=" + std::to_string(rep));
    times.push_back(seconds_between(t0, t1));
  }
  return times;
}

/// Every epoch: the ledger closes and a budgeted plan takes
/// min(budget, backlog) pairs.
void check_epochs(const Spec& spec, const meas::DaemonReport& report,
                  bool corrupt, Result& res) {
  res.check("epochs_completed",
            !report.interrupted && report.epochs.size() == spec.epochs,
            std::to_string(report.epochs.size()) + " of " +
                std::to_string(spec.epochs) + " epochs");
  std::string ledger_bad, budget_bad;
  for (const meas::EpochStats& e : report.epochs) {
    const meas::ScanReport& s = e.scan;
    std::size_t resolved = s.measured + s.from_cache + s.failed + s.deferred +
                           s.interrupted_pairs;
    if (corrupt && spec.testbed && e.epoch == 0) ++resolved;
    if (resolved != s.pairs_total || s.pairs_total != e.plan.pairs.size())
      ledger_bad += " epoch " + std::to_string(e.epoch) + ": " +
                    std::to_string(resolved) + " resolved of " +
                    std::to_string(s.pairs_total) + " (" +
                    std::to_string(e.plan.pairs.size()) + " planned);";
    const std::size_t backlog = e.plan.pairs.size() + e.plan.dropped_over_budget;
    if (spec.budget > 0 && e.plan.pairs.size() != std::min(spec.budget, backlog))
      budget_bad += " epoch " + std::to_string(e.epoch) + " planned " +
                    std::to_string(e.plan.pairs.size()) + " of backlog " +
                    std::to_string(backlog) + ";";
  }
  res.check("ledger", ledger_bad.empty(),
            ledger_bad.empty() ? "measured + cached + failed + deferred + "
                                 "interrupted == planned, every epoch"
                               : ledger_bad);
  res.check("budget", budget_bad.empty(),
            budget_bad.empty() ? "every epoch planned min(budget, backlog)"
                               : budget_bad);
}

/// The final store: estimates against ground truth (rtt_err_ms), synthetic
/// estimates inside their noise band, and a byte-identical
/// save_bin -> load_bin round trip.
void check_store(const Spec& spec, const meas::DaemonReport& report,
                 const meas::SparseRttMatrix& store, World& world,
                 const std::string& store_path, bool corrupt, Result& res) {
  const std::string image = store.to_bin();
  const std::vector<dir::Fingerprint> relays = world.relays();
  std::string error;
  std::vector<StoredPair> pairs = decode_store(image, relays, error);
  res.check("store_decodes", error.empty() && pairs.size() == store.size(),
            error.empty() ? std::to_string(pairs.size()) + " pairs" : error);
  if (corrupt && !spec.testbed && !pairs.empty())
    pairs.front().rtt_ms += 2 * kNoiseMs;

  std::vector<double> errors;
  errors.reserve(pairs.size());
  if (spec.testbed) {
    for (const StoredPair& p : pairs)
      errors.push_back(
          std::fabs(p.rtt_ms - world.testbed->world().true_rtt_ms(*p.a, *p.b)));
    res.check("coverage", report.converged,
              "final coverage " + json_number(report.final_coverage) +
                  ", target " + json_number(spec.coverage_target));
  } else {
    std::size_t outside = 0;
    for (const StoredPair& p : pairs) {
      const double base = world.synthetic->base_rtt_ms(*p.a, *p.b);
      if (!(p.rtt_ms >= base && p.rtt_ms <= base + kNoiseMs)) ++outside;
      errors.push_back(std::fabs(p.rtt_ms - base));
    }
    res.check("estimates_within_noise", outside == 0,
              std::to_string(outside) + " of " + std::to_string(pairs.size()) +
                  " estimates outside [base, base + noise]");
  }
  // Testbed estimates sit a few ms above ground truth (relay forwarding
  // cost); a median beyond the ceiling means the measurements broke.
  constexpr double kRttErrCeilingMs = 10.0;
  const double rtt_err = median(errors);
  res.e2e["rtt_err_ms"] = rtt_err;
  res.check("rtt_err_ms", !errors.empty() && rtt_err < kRttErrCeilingMs,
            "median |estimate - truth| " + json_number(rtt_err) + " ms over " +
                std::to_string(errors.size()) + " pairs");

  store.save_bin(store_path);
  const meas::SparseRttMatrix loaded = meas::SparseRttMatrix::load_bin(store_path);
  res.check("bin_round_trip", loaded.to_bin() == image,
            std::to_string(image.size()) + " bytes");
}

/// For a seeded sample of pairs: rtt() equals the store's value, and
/// best_detour() equals a brute-force minimum over the published snapshot
/// (ties to the lowest index).
void check_serving(const serve::PathServer& server,
                   const meas::SparseRttMatrix& store, std::size_t epochs,
                   std::size_t samples, std::uint64_t seed, bool corrupt,
                   Result& res) {
  const auto st = server.state();
  res.check("published", st != nullptr && server.publishes() == epochs,
            std::to_string(server.publishes()) + " publishes");
  if (st == nullptr) return;
  const serve::MatrixSnapshot& snap = st->snapshot;
  const std::size_t n = snap.node_count();
  Rng rng(seed);
  std::size_t rtt_bad = 0, detour_bad = 0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto i = static_cast<std::size_t>(rng.next_below(n));
    std::size_t j = i;
    while (j == i) j = static_cast<std::size_t>(rng.next_below(n));
    const dir::Fingerprint& a = snap.node(i);
    const dir::Fingerprint& b = snap.node(j);
    std::optional<double> served = server.rtt(a, b);
    if (corrupt && s == 0 && served.has_value()) *served += 1e-6;
    if (served != store.rtt(a, b)) ++rtt_bad;

    std::optional<std::size_t> via;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < n; ++k) {
      if (k == i || k == j) continue;
      const double sum = snap.rtt_raw(i, k) + snap.rtt_raw(k, j);
      if (sum < best) {
        best = sum;
        via = k;
      }
    }
    const auto detour = server.best_detour(a, b);
    const bool same = via.has_value()
                          ? detour.has_value() && detour->via == snap.node(*via) &&
                                detour->detour_ms == best
                          : !detour.has_value();
    if (!same) ++detour_bad;
  }
  res.check("served_rtt_equals_store", rtt_bad == 0,
            std::to_string(rtt_bad) + " of " + std::to_string(samples) +
                " sampled pairs differ");
  res.check("best_detour_equals_brute_force", detour_bad == 0,
            std::to_string(detour_bad) + " of " + std::to_string(samples) +
                " sampled pairs differ");
}

/// Turn the epoch marks into spans (epoch -> advance, nodes, plan, scan,
/// checkpoint, publish -> snapshot, derive) and the daemon and publish
/// layer metrics: daemon phases are median self times over the epochs after
/// epoch 0, like epoch_s; publish and its halves median over every epoch.
void trace_epochs(const std::vector<EpochMarks>& marks, bool serve,
                  Tracer& tracer, Result& res) {
  for (std::size_t e = 0; e < marks.size(); ++e) {
    const EpochMarks& m = marks[e];
    const auto id = static_cast<std::int64_t>(e);
    const int epoch = tracer.add("epoch", m.advance_in, m.hook_out, -1, id);
    tracer.add("advance", m.advance_in, m.advance_out, epoch, id);
    tracer.add("nodes", m.advance_out, m.nodes_out, epoch, id);
    tracer.add("plan", m.nodes_out, m.scan_in, epoch, id);
    tracer.add("scan", m.scan_in, m.scan_out, epoch, id);
    tracer.add("checkpoint", m.scan_out, m.hook_in, epoch, id);
    const int publish = tracer.add("publish", m.hook_in, m.hook_out, epoch, id);
    if (serve) {
      tracer.add("snapshot", m.hook_in, m.snapshot_out, publish, id);
      tracer.add("derive", m.snapshot_out, m.hook_out, publish, id);
    }
  }
  const std::vector<double> self = tracer.self_seconds();
  std::map<std::string, std::vector<double>> per_epoch;
  double untiled = 0;  // epoch time not covered by its phase spans
  for (std::size_t i = 0; i < tracer.spans().size(); ++i) {
    const perfbench::Span& s = tracer.spans()[i];
    if (s.id < 0) continue;
    if (s.name == "epoch") untiled = std::max(untiled, std::fabs(self[i]));
    if (s.name == "publish" || s.name == "snapshot" || s.name == "derive") {
      per_epoch[s.name].push_back(seconds_between(s.start, s.end));
    } else if (s.id >= 1 || marks.size() == 1) {
      per_epoch[s.name].push_back(self[i]);
    }
  }
  res.check("phases_tile_epochs", untiled < 1e-6,
            "largest epoch time outside its phase spans: " +
                json_number(untiled) + " s");
  auto& L = res.layers;
  L["ting.daemon.advance_s"] =
      median(per_epoch["advance"]) + median(per_epoch["nodes"]);
  L["ting.daemon.plan_s"] = median(per_epoch["plan"]);
  L["ting.daemon.scan_s"] = median(per_epoch["scan"]);
  L["ting.daemon.checkpoint_s"] = median(per_epoch["checkpoint"]);
  L["serve.publish_s"] = serve ? median(per_epoch["publish"]) : 0;
  L["serve.snapshot_s"] = serve ? median(per_epoch["snapshot"]) : 0;
  L["serve.derive_s"] = serve ? median(per_epoch["derive"]) : 0;
}

/// Planner, store and engine counts from EpochStats and the written store.
void trace_counts(const Spec& spec, const meas::DaemonReport& report,
                  const std::vector<EpochMarks>& marks,
                  const meas::SparseRttMatrix& store,
                  const std::string& store_path, Result& res) {
  std::vector<double> planned, backlog;
  meas::ScanReport sum;
  double scan_wall = 0;
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    const meas::EpochStats& s = report.epochs[e];
    if (e >= 1 || report.epochs.size() == 1) {
      planned.push_back(static_cast<double>(s.plan.pairs.size()));
      backlog.push_back(static_cast<double>(s.plan.pairs.size() +
                                            s.plan.dropped_over_budget));
    }
    sum.measured += s.scan.measured;
    sum.circuits_built += s.scan.circuits_built;
    sum.half_cache_hits += s.scan.half_cache_hits;
    sum.samples_saved += s.scan.samples_saved;
    sum.reseeds += s.scan.reseeds;
    sum.retries += s.scan.retries;
    sum.failed += s.scan.failed;
    sum.deferred += s.scan.deferred;
    scan_wall += seconds_between(marks[e].scan_in, marks[e].scan_out);
  }
  const double measured = static_cast<double>(std::max<std::size_t>(1, sum.measured));
  const double workers = static_cast<double>(spec.testbed ? spec.shards : 1);
  auto& L = res.layers;
  L["ting.daemon.planned_pairs"] = median(planned);
  L["ting.daemon.backlog_pairs"] = median(backlog);
  L["ting.daemon.backlog_per_planned"] =
      median(planned) > 0 ? median(backlog) / median(planned) : 0;
  L["ting.daemon.store_pairs"] = static_cast<double>(store.size());
  L["ting.daemon.store_bytes_per_pair"] =
      static_cast<double>(store.memory_bytes()) /
      static_cast<double>(std::max<std::size_t>(1, store.size()));
  L["ting.daemon.checkpoint_mb"] =
      static_cast<double>(std::filesystem::file_size(store_path)) / 1e6;
  // Busy-equivalent engine time per pair: scan wall time x workers.
  L["ting.scan.ms_per_pair"] = scan_wall * 1e3 * workers / measured;
  L["ting.scan.circuits_per_pair"] = static_cast<double>(sum.circuits_built) / measured;
  L["ting.scan.half_cache_hit_frac"] =
      static_cast<double>(sum.half_cache_hits) / (2 * measured);
  L["ting.scan.samples_saved"] = static_cast<double>(sum.samples_saved);
  L["ting.scan.reseeds"] = static_cast<double>(sum.reseeds);
  L["ting.scan.retries"] = static_cast<double>(sum.retries);
  L["ting.scan.failed"] = static_cast<double>(sum.failed);
  L["ting.scan.deferred"] = static_cast<double>(sum.deferred);
}

/// The closed-loop mix in fixed-size batches (after one warm-up batch) for
/// at least `seconds` and 5 batches; returns each batch's queries/s.
std::vector<double> mix_phase(QueryClient& queries, std::size_t& round,
                              double seconds, bool toy, Tracer& tracer,
                              Result& res) {
  const std::size_t rounds = toy ? 2000 : 20000;
  res.attempted += queries.mix(round, rounds);
  round += rounds;
  std::vector<double> qps;
  const Clock::time_point start = Clock::now();
  while (qps.size() < 5 || seconds_between(start, Clock::now()) < seconds) {
    const Clock::time_point t0 = Clock::now();
    const std::size_t issued = queries.mix(round, rounds);
    const Clock::time_point t1 = Clock::now();
    tracer.add("query_batch", t0, t1, -1, -1, "mix");
    round += rounds;
    res.attempted += issued;
    qps.push_back(static_cast<double>(issued) / seconds_between(t0, t1));
  }
  return qps;
}

/// Per-kind batch medians, then per-query timing over the mix (p50/p99).
void trace_queries(QueryClient& queries, std::size_t first_round, bool toy,
                   Tracer& tracer, Result& res) {
  const std::size_t per_batch = toy ? 200 : 20000;
  std::size_t r = first_round;
  const std::pair<Query, const char*> kinds[] = {{Query::kRtt, "rtt"},
                                                  {Query::kDetour, "detour"},
                                                  {Query::kBand, "band"},
                                                  {Query::kThrough, "through"}};
  for (const auto& [kind, name] : kinds) {
    const std::size_t n = kind == Query::kThrough ? per_batch / 4 : per_batch;
    std::vector<double> ns;
    for (int b = 0; b < (toy ? 3 : 15); ++b) {  // batch 0 warms up
      const Clock::time_point t0 = Clock::now();
      for (std::size_t q = 0; q < n; ++q) queries.one(kind, r++);
      const Clock::time_point t1 = Clock::now();
      tracer.add("query_batch", t0, t1, -1, -1, name);
      res.attempted += n;
      if (b > 0) ns.push_back(seconds_between(t0, t1) * 1e9 / static_cast<double>(n));
    }
    res.layers[std::string("serve.") + name + "_ns"] = median(ns);
  }
  const std::size_t mix = toy ? 2000 : 200000;
  std::vector<double> per_query;
  per_query.reserve(mix);
  for (std::size_t q = 0; q < mix; ++q, ++r) {
    const Query kind = q % 20 == 0  ? Query::kThrough
                       : q % 4 == 0 ? Query::kBand
                       : q % 2 == 0 ? Query::kRtt
                                    : Query::kDetour;
    const Clock::time_point t0 = Clock::now();
    queries.one(kind, r);
    per_query.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
  }
  res.attempted += mix;
  res.layers["serve.query_p50_ns"] = percentile(per_query, 0.50);
  res.layers["serve.query_p99_ns"] = percentile(per_query, 0.99);
}

/// The serving layer on a workload that does not serve: publish a slice of
/// the final store (the pairs among its first `max_relays` consensus relays)
/// five times, build the detour index once more, then run the query mix and
/// the per-kind batches against it.
void probe_serving(const meas::SparseRttMatrix& store,
                   const std::vector<dir::Fingerprint>& nodes,
                   std::size_t max_relays, const serve::ServeOptions& options,
                   std::uint64_t seed, bool toy, perfbench::ProbeSink& sink,
                   Result& res) {
  const std::size_t k = std::min(nodes.size(), max_relays);
  meas::SparseRttMatrix slice;
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i + 1; j < k; ++j)
      if (const auto* e = store.entry(nodes[i], nodes[j]))
        slice.set(nodes[i], nodes[j], e->rtt_ms, e->measured_at, e->samples);
  serve::PathServer server(options);
  std::vector<double> snapshot_s, derive_s, publish_s;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    serve::MatrixSnapshot snap = serve::MatrixSnapshot::build(slice);
    const Clock::time_point t1 = Clock::now();
    server.publish(std::move(snap));
    const Clock::time_point t2 = Clock::now();
    sink.tracer.add("probe", t0, t2, sink.parent, -1,
                    "serve.publish_s relays=" + std::to_string(k));
    snapshot_s.push_back(seconds_between(t0, t1));
    derive_s.push_back(seconds_between(t1, t2));
    publish_s.push_back(seconds_between(t0, t2));
  }
  auto& L = res.layers;
  L["serve.snapshot_s"] = median(snapshot_s);
  L["serve.derive_s"] = median(derive_s);
  L["serve.publish_s"] = median(publish_s);
  L["serve.snapshot_mb"] =
      static_cast<double>(server.state()->snapshot.memory_bytes()) / 1e6;
  perfbench::probe_detour_build(sink, server.state()->snapshot);

  QueryClient queries(server, slice, seed);
  std::size_t round = 0;
  L["serve.queries_per_s"] =
      median(mix_phase(queries, round, toy ? 0.05 : 0.5, toy, sink.tracer, res));
  trace_queries(queries, round, toy, sink.tracer, res);
  res.failed += queries.failed();
}

int run(const Args& args, const Spec& spec) {
  const Clock::time_point origin = Clock::now();
  Tracer tracer(args.trace);
  Result res;
  const std::string store_path = args.dir + "/store.tingmx";
  res.params = {
      {"workload", spec.name},
      {"seed", std::to_string(args.seed)},
      {"size", args.toy ? "toy" : "full"},
      {"environment", spec.testbed ? "testbed(live_tor)" : "synthetic"},
      {"world_seed", std::to_string(kWorldSeed)},
      {"relays", std::to_string(spec.relays)},
      {"shard_workers", std::to_string(spec.testbed ? spec.shards : 1)},
      {"samples", std::to_string(spec.samples)},
      {"churn", json_number(spec.churn)},
      {"rejoin", json_number(kRejoinRate)},
      {"initially_absent", json_number(spec.absent)},
      {"epochs", std::to_string(spec.epochs)},
      {"epoch_hours", "1"},
      {"ttl_hours", json_number(spec.ttl_hours)},
      {"budget", std::to_string(spec.budget)},
      {"half_cache", spec.half_cache ? "1" : "0"},
      {"journal", "0"},
      {"serve", spec.serve ? "1" : "0"},
      {"candidates_per_length", spec.serve ? std::to_string(kCandidates) : "0"},
      {"query_seconds", spec.serve ? json_number(args.seconds) : "0"},
      {"setup_reps", std::to_string(spec.setup_reps)},
  };

  World world;
  const std::vector<double> setup_times = set_up(spec, tracer, world);
  MeteredEnvironment env(world.env(), args.trace);

  // ---- the daemon, with the serving layer on the checkpoint hook ----------
  meas::DaemonOptions opt;
  opt.epochs = spec.epochs;
  opt.epoch_interval = Duration::seconds(3600);
  opt.ttl = Duration::from_ms(spec.ttl_hours * 3600e3);
  opt.budget = spec.budget;
  opt.coverage_target = spec.coverage_target;
  opt.out = store_path;
  opt.seed = derive(args.seed, kDaemon);
  opt.config_tag = "perfbench;" + spec.name;
  opt.half_cache = spec.half_cache;
  opt.journal = false;
  opt.engine.quarantine.enabled = true;
  opt.engine.quarantine.threshold = 3;

  serve::ServeOptions so;
  so.candidates_per_length = kCandidates;
  so.seed = opt.seed;
  serve::PathServer server(so);
  std::vector<double> changed_frac;
  opt.on_checkpoint = [&](const meas::SparseRttMatrix& m,
                          const std::vector<dir::Fingerprint>&,
                          const std::vector<dir::Fingerprint>& changed,
                          const meas::EpochStats& s) {
    EpochMarks& mk = env.marks().back();
    if (args.trace) mk.hook_in = Clock::now();
    if (spec.serve) {
      // The sparse publish overload, split so the trace sees both halves.
      serve::MatrixSnapshot snap = serve::MatrixSnapshot::build(
          m, s.epoch, meas::ScanDaemon::epoch_clock(opt.epoch_interval, s.epoch));
      if (args.trace) mk.snapshot_out = Clock::now();
      changed_frac.push_back(static_cast<double>(changed.size()) /
                             static_cast<double>(snap.node_count()));
      server.publish(std::move(snap), changed);
    }
    mk.hook_out = Clock::now();
  };

  meas::ScanDaemon daemon(env, opt);
  const double cpu0 = cpu_seconds();
  const Clock::time_point loop_start = Clock::now();
  const meas::DaemonReport report = daemon.run();
  res.loop_s = seconds_between(loop_start, Clock::now());
  const double loop_cpu = cpu_seconds() - cpu0;
  const meas::SparseRttMatrix& store = daemon.matrix();

  // ---- closed-loop query phase on the final state -------------------------
  std::vector<double> batch_qps;
  std::optional<QueryClient> queries;
  std::size_t rounds_done = 0;
  if (spec.serve && server.ready()) {
    queries.emplace(server, store, derive(args.seed, kQueries));
    batch_qps = mix_phase(*queries, rounds_done, args.seconds, args.toy, tracer, res);
  }

  // ---- end-to-end metrics -------------------------------------------------
  res.e2e["peak_rss_mb"] = peak_rss_mb();  // before the checks allocate
  std::size_t measured = 0;
  for (const meas::EpochStats& e : report.epochs) {
    measured += e.scan.measured;
    res.attempted += e.plan.pairs.size();
    res.failed += e.scan.failed + e.scan.deferred + e.scan.interrupted_pairs;
  }
  const std::vector<EpochMarks>& marks = env.marks();
  std::vector<double> epoch_times;
  for (std::size_t e = marks.size() > 1 ? 1 : 0; e < marks.size(); ++e)
    epoch_times.push_back(seconds_between(marks[e].advance_in, marks[e].hook_out));
  res.e2e["setup_s"] = median(setup_times);
  res.e2e["pairs_per_s"] = static_cast<double>(measured) / res.loop_s;
  res.e2e["epoch_s"] = median(epoch_times);

  // ---- correctness checks (check_store also sets rtt_err_ms) --------------
  check_epochs(spec, report, args.corrupt, res);
  check_store(spec, report, store, world, store_path, args.corrupt, res);
  if (spec.serve)
    check_serving(server, store, report.epochs.size(), args.toy ? 200 : 2000,
                  derive(args.seed, kChecks), args.corrupt, res);

  // ---- traced run: spans, counts and layer probes ------------------------
  // Every per-layer metric is measured on every workload: a layer the
  // workload does not drive is probed on a fixed-size input instead (a
  // 16-relay probe world for ctrl and the measurer, a 300-relay slice of the
  // final store for serving).
  if (args.trace) {
    trace_epochs(marks, spec.serve, tracer, res);
    trace_counts(spec, report, marks, store, store_path, res);
    auto& L = res.layers;
    L["run.cpu_s"] = loop_cpu;
    L["serve.changed_frac"] = median(changed_frac);

    perfbench::ProbeSink sink{tracer, -1, args.toy ? 0.01 : 1.0, {}, {}};
    try {
      sink.parent = tracer.open("probes");
      perfbench::probe_data_plane(sink, derive(args.seed, kProbes));
      const std::vector<dir::Fingerprint> nodes = world.env().nodes();
      perfbench::probe_store(
          sink, store, nodes,
          meas::ScanDaemon::epoch_clock(opt.epoch_interval, spec.epochs - 1),
          opt.ttl, args.dir + "/probe.tingmx", derive(args.seed, kProbes));
      if (spec.testbed) {
        perfbench::probe_testbed(sink, world.testbed->world(), nodes,
                                 world.testbed_options.ting);
      } else {
        scenario::Testbed probe_world = scenario::live_tor(
            args.toy ? 6 : 16, world.testbed_options.testbed);
        perfbench::probe_testbed(sink, probe_world,
                                 probe_world.all_fingerprints(),
                                 world.testbed_options.ting);
      }
      if (queries) {
        L["serve.queries_per_s"] = median(batch_qps);
        L["serve.snapshot_mb"] =
            static_cast<double>(server.state()->snapshot.memory_bytes()) / 1e6;
        trace_queries(*queries, rounds_done, args.toy, tracer, res);
        perfbench::probe_detour_build(sink, server.state()->snapshot);
      } else {
        probe_serving(store, nodes, args.toy ? 30 : 300, so,
                      derive(args.seed, kQueries), args.toy, sink, res);
      }
      tracer.close(sink.parent);
      res.check("probes", true, std::to_string(sink.ops.size()) + " probes");
    } catch (const std::exception& e) {
      res.check("probes", false, e.what());
    }
    for (const auto& [k, v] : sink.values) L[k] = v;
    res.probe_ops = sink.ops;
    if (!args.trace_out.empty() && !tracer.write_json(args.trace_out, origin))
      res.check("trace_written", false, args.trace_out);
  }

  if (queries) res.failed += queries->failed();
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) return 2;
  std::fputs(result_json(res).c_str(), f);
  std::fclose(f);
  return res.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --dir DIR --out FILE [--trace-out FILE] "
                 "[--size full|toy] [--corrupt 0|1]\n");
    return 2;
  }
  const std::optional<Spec> spec = make_spec(args->workload, args->toy);
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  try {
    return run(*args, *spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
