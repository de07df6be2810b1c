// Vivaldi-style network coordinates — the landmark/embedding alternative
// to direct measurement that §2 discusses (Vivaldi [6], GNP [18],
// Octant [33]): "such estimation systems offer considerably greater
// coverage than Ting ... but suffer from the fact that Internet latencies
// are inherently difficult to estimate accurately, e.g., due to triangle
// inequality violations."
//
// This implements the classic decentralized spring-relaxation algorithm
// over d-dimensional Euclidean coordinates, fit from (a subset of) pairwise
// observations. Because the embedding is a metric space, it provably cannot
// represent a TIV — the structural argument for Ting's direct measurement,
// demonstrated quantitatively in bench/ablation_coordinates.
#pragma once

#include <vector>

#include "serve/snapshot.h"
#include "util/rng.h"

namespace ting::analysis {

struct VivaldiConfig {
  int dimensions = 5;
  double ce = 0.25;  ///< adaptive error gain
  double cc = 0.25;  ///< coordinate update gain
  int rounds = 200;  ///< passes over the observation set
};

class VivaldiSystem {
 public:
  explicit VivaldiSystem(VivaldiConfig config = {});

  /// Fit coordinates for every snapshot node from its measured pairs.
  /// `sample_fraction` in (0, 1] selects a random subset of pairs to train
  /// on (coordinate systems' selling point is needing far fewer than
  /// all-pairs measurements). A zero or negative RTT (legal in a Ting
  /// estimate) is skipped like an unmeasured pair: the update divides by
  /// the observed RTT.
  void fit(const serve::MatrixSnapshot& observations, Rng& rng,
           double sample_fraction = 1.0);

  /// Predicted RTT between two fitted nodes (Euclidean distance), by their
  /// index in the fitted snapshot.
  double estimate_ms(std::size_t a, std::size_t b) const;

  const VivaldiConfig& config() const { return config_; }

  /// Relative error |est − true| / true over every pair of `truth` with a
  /// positive RTT. `truth` indexes the fitted nodes.
  std::vector<double> relative_errors(
      const serve::MatrixSnapshot& truth) const;

 private:
  struct NodeState {
    std::vector<double> position;
    double error = 1.0;  ///< confidence weight, shrinks as the fit improves
  };
  VivaldiConfig config_;
  std::vector<NodeState> nodes_;  ///< by snapshot index
};

}  // namespace ting::analysis
