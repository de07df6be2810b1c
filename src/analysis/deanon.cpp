#include "analysis/deanon.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "util/assert.h"

namespace ting::analysis {

double DeanonWorld::rtt(std::size_t a, std::size_t b) const {
  const auto r = try_rtt(a, b);
  TING_CHECK_MSG(r.has_value(), "missing RTT for node pair");
  return *r;
}

std::optional<double> DeanonWorld::try_rtt(std::size_t a, std::size_t b) const {
  TING_CHECK(matrix != nullptr);
  return matrix->rtt(nodes.at(a), nodes.at(b));
}

double DeanonWorld::weight(std::size_t i) const {
  if (weights.empty()) return 1.0;
  return weights.at(i);
}

namespace {

/// One circuit draw, e2e left unset; the callers decide what a circuit with
/// an unmeasured leg means (abort vs. redraw).
CircuitInstance draw_circuit(const DeanonWorld& world, Rng& rng,
                             bool weighted) {
  const std::size_t n = world.nodes.size();
  TING_CHECK(n >= 4);
  CircuitInstance c;
  c.source = rng.next_below(n);  // victims are uniform regardless of weights
  auto pick_relay = [&]() {
    if (!weighted || world.weights.empty()) return static_cast<std::size_t>(rng.next_below(n));
    return rng.weighted_index(world.weights);
  };
  do { c.entry = pick_relay(); } while (c.entry == c.source);
  do { c.middle = pick_relay(); } while (c.middle == c.source || c.middle == c.entry);
  do { c.exit = pick_relay(); } while (c.exit == c.source || c.exit == c.entry ||
                                       c.exit == c.middle);
  // The attacker-destination sits at a plausible server RTT from the exit.
  c.exit_to_dst_ms = rng.uniform(5.0, 80.0);
  return c;
}

}  // namespace

CircuitInstance sample_circuit(const DeanonWorld& world, Rng& rng,
                               bool weighted) {
  CircuitInstance c = draw_circuit(world, rng, weighted);
  c.e2e_ms = world.rtt(c.source, c.entry) + world.rtt(c.entry, c.middle) +
             world.rtt(c.middle, c.exit) + c.exit_to_dst_ms;
  return c;
}

std::optional<CircuitInstance> try_sample_circuit(const DeanonWorld& world,
                                                  Rng& rng, bool weighted,
                                                  std::size_t max_attempts) {
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    CircuitInstance c = draw_circuit(world, rng, weighted);
    const auto se = world.try_rtt(c.source, c.entry);
    const auto em = world.try_rtt(c.entry, c.middle);
    const auto mx = world.try_rtt(c.middle, c.exit);
    if (!se || !em || !mx) continue;  // unmeasured leg: redraw
    c.e2e_ms = *se + *em + *mx + c.exit_to_dst_ms;
    return c;
  }
  return std::nullopt;
}

namespace {

/// Attacker-side episode state.
struct Episode {
  const DeanonWorld& world;
  const AttackerView& view;
  const bool use_constraints;
  std::vector<std::size_t> candidates;      ///< all nodes except the exit
  std::set<std::size_t> positives;          ///< probed, on the circuit
  std::set<std::size_t> negatives;          ///< probed, not on the circuit
  std::set<std::size_t> alive;              ///< still possibly on the circuit
  /// µ of Algorithm 1, computed once: score() runs per candidate per probe.
  double mu = 0;

  Episode(const DeanonWorld& w, const AttackerView& v, bool constraints)
      : world(w), view(v), use_constraints(constraints) {
    for (std::size_t i = 0; i < w.nodes.size(); ++i) {
      if (i == v.exit) continue;
      candidates.push_back(i);
      alive.insert(i);
    }
  }

  /// Is the ordered pair (e, m) consistent with everything we know?
  bool pair_feasible(std::size_t e, std::size_t m) const {
    if (e == m) return false;
    if (negatives.contains(e) || negatives.contains(m)) return false;
    for (std::size_t p : positives)
      if (p != e && p != m) return false;
    if (use_constraints) {
      // The paper's conservative inequality (drops R(source, entry) >= 0).
      // An unmeasured leg means the bound cannot be evaluated, and a pair
      // the attacker cannot bound is a pair it cannot rule out.
      const auto em = world.try_rtt(e, m);
      const auto mx = world.try_rtt(m, view.exit);
      if (!em.has_value() || !mx.has_value()) return true;
      const double lower_bound = *em + *mx + view.exit_to_dst_ms;
      if (lower_bound > view.e2e_ms + 1e-9) return false;
    }
    return true;
  }

  /// Enumerate feasible ordered pairs over alive candidates.
  std::vector<std::pair<std::size_t, std::size_t>> feasible_pairs() const {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    for (std::size_t e : alive)
      for (std::size_t m : alive)
        if (pair_feasible(e, m)) out.emplace_back(e, m);
    return out;
  }

  /// Drop alive candidates appearing in no feasible pair ("ruled out
  /// implicitly" — never probed). Returns the number removed.
  std::size_t prune() {
    if (!use_constraints) return 0;
    const auto pairs = feasible_pairs();
    std::set<std::size_t> still;
    for (const auto& [e, m] : pairs) {
      still.insert(e);
      still.insert(m);
    }
    std::size_t removed = 0;
    for (auto it = alive.begin(); it != alive.end();) {
      if (!still.contains(*it)) {
        it = alive.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  /// Done when every feasible pair names the same {entry, middle} set.
  bool solved() const {
    const auto pairs = feasible_pairs();
    if (pairs.empty()) return false;
    std::set<std::size_t> first{pairs[0].first, pairs[0].second};
    for (const auto& [e, m] : pairs) {
      if (!(std::set<std::size_t>{e, m} == first)) return false;
    }
    return true;
  }

  /// Algorithm 1's score for candidate i (smaller = probe sooner).
  double score(std::size_t i) const {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t other : alive) {
      if (other == i) continue;
      for (const auto& [e, m] : {std::pair<std::size_t, std::size_t>{i, other},
                                 std::pair<std::size_t, std::size_t>{other, i}}) {
        if (!pair_feasible(e, m)) continue;
        // Feasible-but-unmeasured pairs contribute no residual: nothing to
        // rank by, but they stay probe-able through the baseline order.
        const auto em = world.try_rtt(e, m);
        const auto mx = world.try_rtt(m, view.exit);
        if (!em.has_value() || !mx.has_value()) continue;
        const double circuit_rtt = *em + *mx;
        best = std::min(
            best, std::abs(view.e2e_ms -
                           (circuit_rtt + view.exit_to_dst_ms + mu)));
      }
    }
    // Weighted variant (§5.1.1): divide the score by the node's weight. A
    // small floor keeps coincidental near-zero residuals from erasing the
    // bandwidth prior among otherwise-tied candidates.
    return (best + 5.0) / world.weight(i);
  }
};

}  // namespace

DeanonResult deanonymize_with_probe(const DeanonWorld& world,
                                    const AttackerView& view,
                                    Strategy strategy, Rng& rng,
                                    const ProbeFn& probe) {
  const bool constraints = strategy == Strategy::kIgnoreTooLarge ||
                           strategy == Strategy::kInformed;
  Episode ep(world, view, constraints);
  if (strategy == Strategy::kInformed) ep.mu = world.mean_rtt();

  DeanonResult result;
  result.candidates = ep.candidates.size();
  const std::size_t ruled_out_first = ep.prune();
  result.fraction_ruled_out_initially =
      static_cast<double>(ruled_out_first) /
      static_cast<double>(result.candidates);

  // Pre-shuffled order for the unordered strategies.
  std::vector<std::size_t> order = ep.candidates;
  if (strategy == Strategy::kWeightOrdered) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return world.weight(a) > world.weight(b);
    });
  } else {
    rng.shuffle(order);
  }

  std::set<std::size_t> probed;
  auto next_target = [&]() -> std::optional<std::size_t> {
    if (strategy == Strategy::kInformed) {
      double best_score = std::numeric_limits<double>::infinity();
      std::optional<std::size_t> best;
      std::optional<std::size_t> fallback;  // unscoreable but still alive
      for (std::size_t i : ep.alive) {
        if (probed.contains(i)) continue;
        if (!fallback.has_value()) fallback = i;
        const double s = ep.score(i);
        if (s < best_score) {
          best_score = s;
          best = i;
        }
      }
      // On a sparse matrix every candidate can score infinity (no measured
      // feasible pair to rank by); probe in candidate order rather than
      // stalling with probe-able candidates left.
      return best.has_value() ? best : fallback;
    }
    for (std::size_t i : order) {
      if (probed.contains(i)) continue;
      if (constraints && !ep.alive.contains(i)) continue;
      return i;
    }
    return std::nullopt;
  };

  while (!ep.solved()) {
    const auto target = next_target();
    if (!target.has_value()) break;  // nothing left to probe
    probed.insert(*target);
    ++result.probes;
    const bool on_circuit = probe(*target);
    if (on_circuit) {
      ep.positives.insert(*target);
    } else {
      ep.negatives.insert(*target);
      ep.alive.erase(*target);
    }
    ep.prune();
  }

  result.success = ep.solved();
  if (result.success) {
    const auto pairs = ep.feasible_pairs();
    result.identified = {pairs[0].first, pairs[0].second};
  }
  result.fraction_probed = static_cast<double>(result.probes) /
                           static_cast<double>(result.candidates);
  return result;
}

DeanonResult deanonymize(const DeanonWorld& world,
                         const CircuitInstance& circuit, Strategy strategy,
                         Rng& rng) {
  return deanonymize_with_probe(
      world, AttackerView::of(circuit), strategy, rng,
      [&circuit](std::size_t node) {
        return node == circuit.entry || node == circuit.middle;
      });
}

}  // namespace ting::analysis
