// Latency-aware path selection (§5.2's constructive application, and the
// future-work direction §6 sketches): given an all-pairs RTT dataset, find
// circuits that are fast, or that sit in an "entropic" RTT band where many
// alternative circuits exist (so an attacker who learns the end-to-end RTT
// and length still faces a large candidate set — Fig 17's defence).
#pragma once

#include <optional>
#include <vector>

#include "analysis/circuits.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace ting::analysis {

struct BandQuery {
  std::size_t length = 3;
  double rtt_lo_ms = 0;
  double rtt_hi_ms = 1e18;
  std::size_t want = 10;           ///< stop after this many hits
  std::size_t max_iterations = 20000;
};

/// Rejection-sample circuits whose end-to-end RTT lands in the band.
/// Returns up to `want` distinct circuits (may be fewer if the band is
/// sparse within the iteration budget, and none when the snapshot has
/// fewer than `length` nodes).
std::vector<CircuitSample> find_circuits_in_band(
    const serve::MatrixSnapshot& snapshot, const BandQuery& query, Rng& rng);

/// Local-search optimizer: start from random circuits of `length` and
/// improve by single-node swaps until no swap lowers the RTT; keep the best
/// across `restarts`. Finds circuits far faster than random selection would
/// (exploiting TIVs where they help). On a matrix too sparse for any
/// complete circuit the returned sample has an empty path.
CircuitSample optimize_low_rtt_circuit(const serve::MatrixSnapshot& snapshot,
                                       std::size_t length, Rng& rng,
                                       int restarts = 8);

/// Estimated number of distinct circuits of `length` in the band, scaled to
/// the full C(n, length) population (the anonymity-set size of Fig 16/17).
/// Scaled by the number of *valid* samples drawn (incomplete paths on a
/// sparse matrix are skipped); nullopt when no valid sample could be drawn,
/// so there is no estimate to report.
std::optional<double> circuit_options_in_band(
    const serve::MatrixSnapshot& snapshot, std::size_t length,
    double rtt_lo_ms, double rtt_hi_ms, std::size_t sample_count, Rng& rng);

/// The §5.2.2 defence: among lengths [3, max_length], pick the length whose
/// anonymity set within the band is largest. Returns nullopt if no length
/// has any circuit in the band.
struct BandRecommendation {
  std::size_t length = 0;
  double options = 0;  ///< scaled circuit count in the band
};
std::optional<BandRecommendation> recommend_length_for_band(
    const serve::MatrixSnapshot& snapshot, double rtt_lo_ms, double rtt_hi_ms,
    std::size_t max_length, std::size_t sample_count, Rng& rng);

}  // namespace ting::analysis
