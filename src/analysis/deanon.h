// Deanonymization with all-pairs RTT knowledge (§5.1).
//
// Threat model: the attacker is the destination. It knows the exit node x,
// its own RTT r to x, and the end-to-end circuit RTT Re2e. It can issue
// Murdoch–Danezis-style congestion probes that reveal whether a given relay
// is on the victim circuit, and wants to identify the entry and middle with
// as few probes as possible.
//
// Three strategies are implemented:
//  - kRttUnaware: brute force in random order (the baseline);
//  - kIgnoreTooLarge: prune every candidate that cannot appear in any
//    feasible (entry, middle) pair under
//        R(e,m) + R(m,x) + r <= Re2e
//    (the paper's conservative inequalities, which ignore R(source,entry));
//  - kInformed: additionally rank candidates by Algorithm 1's score
//        score(i) = min over feasible circuits c containing i of
//                   |Re2e − (R(c) + r + µ)|
//    where µ is the mean RTT of the all-pairs dataset, and probe the
//    lowest-scoring candidate first.
//
// The weighted variants model Tor's bandwidth-weighted relay selection: the
// victim circuit is drawn weighted, the baseline probes in decreasing
// weight order, and Algorithm 1 divides each score by the node's weight.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "serve/snapshot.h"
#include "util/rng.h"

namespace ting::analysis {

/// The attacker's world: the Ting-produced all-pairs matrix as a snapshot,
/// whose node indices name the relays, and optional bandwidth weights in
/// the same order (empty = uniform selection). The snapshot must outlive
/// the world.
struct DeanonWorld {
  explicit DeanonWorld(const serve::MatrixSnapshot& snapshot,
                       std::vector<double> weights = {});

  const serve::MatrixSnapshot* snapshot;
  std::vector<double> weights;
  /// Algorithm 1's µ, summed once per world: snapshot->mean_rtt().
  double mu;

  std::size_t node_count() const { return snapshot->node_count(); }
  /// RTT between two node indices; aborts (TING_CHECK) when the pair is
  /// missing. Attack logic that can see a partially-converged matrix goes
  /// through try_rtt instead.
  double rtt(std::size_t a, std::size_t b) const;
  /// RTT between two node indices, or nullopt when the pair is unmeasured.
  std::optional<double> try_rtt(std::size_t a, std::size_t b) const {
    return snapshot->rtt(a, b);
  }
  double weight(std::size_t i) const;
};

/// A victim circuit: source → entry → middle → exit → destination(attacker).
struct CircuitInstance {
  std::size_t source = 0, entry = 0, middle = 0, exit = 0;
  double exit_to_dst_ms = 0;  ///< r: known to the attacker
  double e2e_ms = 0;          ///< Re2e: known to the attacker
};

/// Draw a victim circuit (source uniform; relays uniform or
/// bandwidth-weighted when the world carries weights), all four distinct.
/// Aborts (TING_CHECK) if a leg of the drawn circuit is unmeasured; use
/// try_sample_circuit against sparse matrices.
CircuitInstance sample_circuit(const DeanonWorld& world, Rng& rng,
                               bool weighted);

/// Like sample_circuit, but redraws (up to `max_attempts`) until every leg
/// of the circuit is measured, and returns nullopt instead of aborting when
/// the matrix is too sparse to yield one (fewer than four nodes included).
/// On a complete matrix the first draw succeeds and the RNG stream matches
/// sample_circuit exactly.
std::optional<CircuitInstance> try_sample_circuit(const DeanonWorld& world,
                                                  Rng& rng, bool weighted,
                                                  std::size_t max_attempts = 100);

enum class Strategy : std::uint8_t {
  kRttUnaware,
  kIgnoreTooLarge,
  kInformed,
  /// Weighted baseline: probe in decreasing bandwidth-weight order.
  kWeightOrdered,
};

struct DeanonResult {
  bool success = false;
  int probes = 0;                ///< brute-force probes actually issued
  std::size_t candidates = 0;    ///< initial candidate count (N − 1)
  double fraction_probed = 0;    ///< probes / candidates
  /// Fraction of candidates excluded before any probe purely by the
  /// too-large-RTT rules (Fig 13's quantity). Zero for kRttUnaware.
  double fraction_ruled_out_initially = 0;
  /// The {entry, middle} set the attacker concluded (when success).
  std::set<std::size_t> identified;
};

/// What the attacker-destination knows up front (§5.1.1): the exit, its own
/// RTT to the exit, and the end-to-end circuit RTT.
struct AttackerView {
  std::size_t exit = 0;
  double exit_to_dst_ms = 0;
  double e2e_ms = 0;

  static AttackerView of(const CircuitInstance& c) {
    return AttackerView{c.exit, c.exit_to_dst_ms, c.e2e_ms};
  }
};

/// Probe function: does `node_index` lie on the victim circuit? In
/// simulation this is an oracle; against the full stack it is a
/// Murdoch–Danezis congestion probe (analysis/congestion.h).
using ProbeFn = std::function<bool(std::size_t)>;

/// Run one deanonymization episode with an explicit probe implementation.
DeanonResult deanonymize_with_probe(const DeanonWorld& world,
                                    const AttackerView& view,
                                    Strategy strategy, Rng& rng,
                                    const ProbeFn& probe);

/// Oracle-probe convenience used by the Fig 12/13 simulations.
DeanonResult deanonymize(const DeanonWorld& world,
                         const CircuitInstance& circuit, Strategy strategy,
                         Rng& rng);

}  // namespace ting::analysis
