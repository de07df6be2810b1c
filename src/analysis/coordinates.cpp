#include "analysis/coordinates.h"

#include <cmath>
#include <tuple>

#include "util/assert.h"

namespace ting::analysis {

namespace {

double norm(const std::vector<double>& v) {
  double acc = 0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}

/// out = a − b, in place.
void diff(const std::vector<double>& a, const std::vector<double>& b,
          std::vector<double>& out) {
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
}

}  // namespace

VivaldiSystem::VivaldiSystem(VivaldiConfig config) : config_(config) {
  TING_CHECK(config_.dimensions >= 2);
  TING_CHECK(config_.rounds >= 1);
}

void VivaldiSystem::fit(const serve::MatrixSnapshot& observations, Rng& rng,
                        double sample_fraction) {
  TING_CHECK(sample_fraction > 0 && sample_fraction <= 1.0);
  const std::size_t n = observations.node_count();
  const auto dims = static_cast<std::size_t>(config_.dimensions);
  nodes_.assign(n, NodeState{});
  for (NodeState& s : nodes_) {
    s.position.resize(dims);
    for (double& x : s.position) x = rng.normal(0, 1.0);
  }

  // Training set: a random subset of the pairs with a usable RTT.
  std::vector<std::tuple<std::uint32_t, std::uint32_t, double>> obs;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double rtt = observations.rtt_raw(i, j);
      if (!(rtt > 0)) continue;  // unmeasured (NaN), zero or negative
      if (sample_fraction < 1.0 && !rng.chance(sample_fraction)) continue;
      obs.emplace_back(static_cast<std::uint32_t>(i),
                       static_cast<std::uint32_t>(j), rtt);
    }
  }
  TING_CHECK_MSG(!obs.empty(), "no observations to fit on");

  std::vector<double> d(dims);
  for (int round = 0; round < config_.rounds; ++round) {
    rng.shuffle(obs);
    for (const auto& [a, b, rtt] : obs) {
      NodeState& sa = nodes_[a];
      NodeState& sb = nodes_[b];
      diff(sa.position, sb.position, d);
      double dist = norm(d);
      if (dist < 1e-9) {
        // Coincident points: pick a random separation direction.
        for (double& x : d) x = rng.normal(0, 1e-3);
        dist = norm(d);
      }
      // Vivaldi update (both endpoints, symmetric observation).
      const double w = sa.error / (sa.error + sb.error);
      const double es = std::abs(dist - rtt) / rtt;
      sa.error = es * config_.ce * w + sa.error * (1 - config_.ce * w);
      const double delta = config_.cc * w;
      const double force = delta * (rtt - dist);
      for (std::size_t k = 0; k < dims; ++k)
        sa.position[k] += force * (d[k] / dist);
      // Mirror update for b (observation is symmetric).
      const double wb = sb.error / (sa.error + sb.error);
      sb.error = es * config_.ce * wb + sb.error * (1 - config_.ce * wb);
      const double force_b = config_.cc * wb * (rtt - dist);
      for (std::size_t k = 0; k < dims; ++k) {
        const double unit = -d[k] / dist;
        sb.position[k] += force_b * unit;
      }
    }
  }
}

double VivaldiSystem::estimate_ms(std::size_t a, std::size_t b) const {
  TING_CHECK_MSG(a < nodes_.size() && b < nodes_.size(), "node not fitted");
  const std::vector<double>& pa = nodes_[a].position;
  const std::vector<double>& pb = nodes_[b].position;
  double acc = 0;
  for (std::size_t k = 0; k < pa.size(); ++k)
    acc += (pa[k] - pb[k]) * (pa[k] - pb[k]);
  return std::sqrt(acc);
}

std::vector<double> VivaldiSystem::relative_errors(
    const serve::MatrixSnapshot& truth) const {
  TING_CHECK_MSG(truth.node_count() == nodes_.size(),
                 "truth does not index the fitted nodes");
  std::vector<double> errs;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes_.size(); ++j) {
      const double rtt = truth.rtt_raw(i, j);
      if (!(rtt > 0)) continue;  // unmeasured (NaN), zero or negative
      errs.push_back(std::abs(estimate_ms(i, j) - rtt) / rtt);
    }
  }
  return errs;
}

}  // namespace ting::analysis
