#include "analysis/path_selection.h"

#include <algorithm>
#include <set>

#include "util/assert.h"

namespace ting::analysis {

std::vector<CircuitSample> find_circuits_in_band(
    const serve::MatrixSnapshot& snapshot, const BandQuery& query, Rng& rng) {
  TING_CHECK(query.length >= 2);
  std::vector<CircuitSample> hits;
  if (query.length > snapshot.node_count()) return hits;
  std::set<std::vector<std::size_t>> seen;
  for (std::size_t iter = 0;
       iter < query.max_iterations && hits.size() < query.want; ++iter) {
    CircuitSample s;
    s.path = rng.sample_indices(snapshot.node_count(), query.length);
    // An incomplete path (unmeasured hop) spends an iteration but is never
    // a hit — sparse matrices narrow the search, they don't abort it.
    const auto rtt = snapshot.path_rtt_ms(s.path);
    if (!rtt.has_value()) continue;
    s.rtt_ms = *rtt;
    if (s.rtt_ms < query.rtt_lo_ms || s.rtt_ms > query.rtt_hi_ms) continue;
    if (!seen.insert(s.path).second) continue;
    hits.push_back(std::move(s));
  }
  return hits;
}

CircuitSample optimize_low_rtt_circuit(const serve::MatrixSnapshot& snapshot,
                                       std::size_t length, Rng& rng,
                                       int restarts) {
  TING_CHECK(length >= 2);
  TING_CHECK(restarts >= 1);
  const std::size_t n = snapshot.node_count();
  CircuitSample best;
  best.rtt_ms = 1e18;
  if (length > n) return best;  // no simple circuit exists
  for (int r = 0; r < restarts; ++r) {
    CircuitSample current;
    current.path = rng.sample_indices(n, length);
    const auto start = snapshot.path_rtt_ms(current.path);
    // A start over an unmeasured hop burns the restart; local search needs
    // a measurable incumbent to improve on.
    if (!start.has_value()) continue;
    current.rtt_ms = *start;
    bool improved = true;
    while (improved) {
      improved = false;
      // Try replacing each position with each unused node.
      for (std::size_t pos = 0; pos < length && !improved; ++pos) {
        const std::set<std::size_t> used(current.path.begin(),
                                         current.path.end());
        for (std::size_t candidate = 0; candidate < n; ++candidate) {
          if (used.contains(candidate)) continue;
          std::vector<std::size_t> trial = current.path;
          trial[pos] = candidate;
          const auto rtt = snapshot.path_rtt_ms(trial);
          if (!rtt.has_value()) continue;  // swap crosses an unmeasured pair
          if (*rtt < current.rtt_ms - 1e-12) {
            current.path = std::move(trial);
            current.rtt_ms = *rtt;
            improved = true;
            break;
          }
        }
      }
    }
    if (current.rtt_ms < best.rtt_ms) best = std::move(current);
  }
  // On a matrix too sparse for any complete circuit the result has an empty
  // path (and the sentinel RTT) — callers check rather than crash.
  return best;
}

std::optional<double> circuit_options_in_band(
    const serve::MatrixSnapshot& snapshot, std::size_t length,
    double rtt_lo_ms, double rtt_hi_ms, std::size_t sample_count, Rng& rng) {
  const auto samples = sample_circuits(snapshot, length, sample_count, rng);
  // The scaling divisor must be the number of circuits actually *judged*
  // (valid draws), not the number requested: on a sparse matrix skipped
  // draws would otherwise deflate the estimate, and with zero valid draws
  // there is no estimate at all.
  if (samples.empty()) return std::nullopt;
  std::size_t in_band = 0;
  for (const auto& s : samples)
    if (s.rtt_ms >= rtt_lo_ms && s.rtt_ms <= rtt_hi_ms) ++in_band;
  return static_cast<double>(in_band) / static_cast<double>(samples.size()) *
         n_choose_k(snapshot.node_count(), length);
}

std::optional<BandRecommendation> recommend_length_for_band(
    const serve::MatrixSnapshot& snapshot, double rtt_lo_ms, double rtt_hi_ms,
    std::size_t max_length, std::size_t sample_count, Rng& rng) {
  TING_CHECK(max_length >= 3);
  std::optional<BandRecommendation> best;
  for (std::size_t len = 3; len <= std::min(max_length, snapshot.node_count());
       ++len) {
    const auto options = circuit_options_in_band(
        snapshot, len, rtt_lo_ms, rtt_hi_ms, sample_count, rng);
    if (!options.has_value() || *options <= 0) continue;
    if (!best.has_value() || *options > best->options)
      best = BandRecommendation{len, *options};
  }
  return best;
}

}  // namespace ting::analysis
