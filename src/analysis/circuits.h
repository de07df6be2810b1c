// Long-circuit analysis (§5.2.2): sample random circuits of lengths 3–10
// from an all-pairs RTT snapshot, bin their end-to-end RTTs, scale counts
// to the full combinatorial population C(n, ℓ), and measure the "entropy"
// of low-latency circuits — the median probability that a given node sits
// on a circuit in each RTT bin (Figs 16 and 17).
//
// Every analysis entry point reads a serve::MatrixSnapshot and names relays
// by their index in it (sorted-fingerprint order).
#pragma once

#include <vector>

#include "serve/snapshot.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ting::analysis {

struct CircuitSample {
  std::vector<std::size_t> path;  ///< snapshot node indices, length ℓ
  double rtt_ms = 0;              ///< sum of inter-relay RTTs along the path
};

/// Draw `count` random simple circuits (distinct relays) of length `len`.
/// Circuits crossing an unmeasured pair are skipped, not aborted on; on a
/// sparse matrix fewer than `count` samples may come back (the draw budget
/// is a fixed multiple of `count`), and none when the snapshot has fewer
/// than `len` nodes. On a complete matrix this returns exactly `count`
/// samples from the same RNG stream as always.
std::vector<CircuitSample> sample_circuits(
    const serve::MatrixSnapshot& snapshot, std::size_t len, std::size_t count,
    Rng& rng);

struct CircuitRttHistogram {
  std::size_t length = 0;
  double bin_ms = 50.0;
  /// Estimated number of circuits per RTT bin, scaled from the sample to
  /// the full population C(n, length).
  std::vector<double> scaled_counts;
  /// Per-bin median (over nodes) probability that a node is on a circuit
  /// whose RTT falls in the bin — Fig 17's metric.
  std::vector<double> median_node_probability;
};

/// Build the Fig 16/17 statistics for one circuit length.
CircuitRttHistogram circuit_rtt_histogram(
    const serve::MatrixSnapshot& snapshot, std::size_t len,
    std::size_t sample_count, double bin_ms, std::size_t nbins, Rng& rng);

}  // namespace ting::analysis
