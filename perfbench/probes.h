// Layer probes for the traced run: each times one layer's public functions
// directly, after a warm-up, and reports time per operation beside the
// operation count. Every probe checks its own outputs and throws
// ProbeError when they are wrong.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "dir/fingerprint.h"
#include "scenario/testbed.h"
#include "serve/snapshot.h"
#include "ting/measurer.h"
#include "ting/sparse_matrix.h"
#include "trace.h"
#include "util/time.h"

namespace perfbench {

struct ProbeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Where probe results go: metric -> value, metric -> operations timed.
struct ProbeSink {
  Tracer& tracer;
  int parent = -1;
  /// Multiplies every probe's operation count (toy runs shrink it).
  double scale = 1.0;
  std::map<std::string, double> values;
  std::map<std::string, std::size_t> ops;

  std::size_t scaled(std::size_t n) const;
  /// Time `body(n)` for n = scaled(ops) after a warm-up of n/10; record the
  /// probe's span and `metric` = seconds per operation × `unit`.
  template <typename Body>
  void time_ops(const std::string& metric, std::size_t ops_wanted,
                double unit, Body body) {
    const std::size_t n = scaled(ops_wanted);
    body(n / 10 > 0 ? n / 10 : 1);
    const Clock::time_point t0 = Clock::now();
    body(n);
    const Clock::time_point t1 = Clock::now();
    tracer.add("probe", t0, t1, parent, -1,
               metric + " ops=" + std::to_string(n));
    values[metric] = seconds_between(t0, t1) / static_cast<double>(n) * unit;
    ops[metric] = n;
  }
};

/// crypto, cells and simnet: cell-sized payloads through the onion layers,
/// one cipher and the digest; the circuit handshake and identity keygen;
/// cell and relay-payload codecs; event-loop schedule + run.
void probe_data_plane(ProbeSink& sink, std::uint64_t seed);

/// SparseRttMatrix::contains / save_bin / coverage on the final store.
void probe_store(ProbeSink& sink, const ting::meas::SparseRttMatrix& store,
                 const std::vector<ting::dir::Fingerprint>& nodes,
                 ting::TimePoint now, ting::Duration ttl,
                 const std::string& save_path, std::uint64_t seed);

/// Controller::get_info round trips and TingMeasurer::measure_blocking on
/// a testbed world's measurement host, over a fixed pair list.
void probe_testbed(ProbeSink& sink, ting::scenario::Testbed& world,
                   const std::vector<ting::dir::Fingerprint>& nodes,
                   const ting::meas::TingConfig& config);

/// A standalone DetourIndex::build on the final snapshot.
void probe_detour_build(ProbeSink& sink,
                        const ting::serve::MatrixSnapshot& snapshot);

}  // namespace perfbench
