#include "analysis/circuits.h"

#include <algorithm>

#include "util/assert.h"

namespace ting::analysis {

std::vector<CircuitSample> sample_circuits(
    const serve::MatrixSnapshot& snapshot, std::size_t len, std::size_t count,
    Rng& rng) {
  TING_CHECK(len >= 2);
  std::vector<CircuitSample> out;
  if (len > snapshot.node_count()) return out;  // no simple circuit exists
  out.reserve(count);
  // Incomplete draws (a hop over an unmeasured pair) are skipped rather
  // than aborted on. The attempt budget bounds the loop on very sparse
  // matrices; on a complete matrix every draw is valid and the RNG stream
  // matches the historical one draw per sample.
  const std::size_t max_attempts = count * 10 + 100;
  for (std::size_t attempt = 0; attempt < max_attempts && out.size() < count;
       ++attempt) {
    CircuitSample s;
    s.path = rng.sample_indices(snapshot.node_count(), len);
    const auto rtt = snapshot.path_rtt_ms(s.path);
    if (!rtt.has_value()) continue;
    s.rtt_ms = *rtt;
    out.push_back(std::move(s));
  }
  return out;
}

CircuitRttHistogram circuit_rtt_histogram(
    const serve::MatrixSnapshot& snapshot, std::size_t len,
    std::size_t sample_count, double bin_ms, std::size_t nbins, Rng& rng) {
  CircuitRttHistogram out;
  out.length = len;
  out.bin_ms = bin_ms;
  out.scaled_counts.assign(nbins, 0.0);
  out.median_node_probability.assign(nbins, 0.0);

  const auto samples = sample_circuits(snapshot, len, sample_count, rng);
  if (samples.empty()) return out;  // sparse matrix: no complete circuit found

  // Raw counts per bin, plus per-bin per-node membership counts.
  std::vector<double> raw(nbins, 0.0);
  const std::size_t n = snapshot.node_count();
  std::vector<std::vector<double>> node_in_bin(nbins,
                                               std::vector<double>(n, 0.0));
  for (const auto& s : samples) {
    // A negative RTT (bad matrix data) must not wrap through the size_t
    // cast into a huge bin index.
    std::size_t bin = s.rtt_ms <= 0
                          ? 0
                          : static_cast<std::size_t>(s.rtt_ms / bin_ms);
    if (bin >= nbins) bin = nbins - 1;
    raw[bin] += 1;
    for (std::size_t node : s.path) node_in_bin[bin][node] += 1;
  }

  // Scale sampled counts to the full population C(n, len) (the paper's
  // procedure for Fig 16). The divisor is the number of *valid* samples
  // drawn, which is sample_count on a complete matrix but smaller on a
  // sparse one — dividing by the request would bias every bin low.
  const double scale = n_choose_k(n, len) /
                       static_cast<double>(samples.size());
  for (std::size_t b = 0; b < nbins; ++b)
    out.scaled_counts[b] = raw[b] * scale;

  // Fig 17: for each bin, P(node on a circuit with RTT in the bin) over the
  // whole circuit sample, median across nodes. Peaks at intermediate RTTs
  // (many circuits and broad node participation); tiny at the extremes,
  // where the few feasible circuits reuse few nodes.
  for (std::size_t b = 0; b < nbins; ++b) {
    if (raw[b] == 0) continue;
    std::vector<double> probs;
    probs.reserve(n);
    for (std::size_t node = 0; node < n; ++node)
      probs.push_back(node_in_bin[b][node] /
                      static_cast<double>(samples.size()));
    out.median_node_probability[b] = quantile(std::move(probs), 0.5);
  }
  return out;
}

}  // namespace ting::analysis
