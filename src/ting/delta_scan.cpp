#include "ting/delta_scan.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <unordered_map>

namespace ting::meas {

bool expired_before(const ExpiredCandidate& l, const ExpiredCandidate& r) {
  return std::tie(l.measured_at, l.i, l.j) < std::tie(r.measured_at, r.i, r.j);
}

namespace {

/// Append the expired candidates to plan.pairs under whatever budget room is
/// left after the new pairs, oldest first per expired_before; the overflow
/// is counted into dropped_over_budget.
void emit_expired(DeltaPlan& plan, std::vector<ExpiredCandidate> expired,
                  std::size_t budget) {
  plan.expired_pairs += expired.size();

  // Budget remaining after the never-measured pairs (which always win: a
  // missing pair costs coverage, a stale one only accuracy).
  std::size_t room = expired.size();
  if (budget != 0)
    room = std::min(room, budget - std::min(budget, plan.pairs.size()));
  // Keep the `room` oldest, oldest first: O(n log room) rather than sorting
  // every stale pair of a large consensus.
  std::partial_sort(expired.begin(), expired.begin() + room, expired.end(),
                    expired_before);
  plan.dropped_over_budget += expired.size() - room;
  for (std::size_t k = 0; k < room; ++k)
    plan.pairs.emplace_back(expired[k].i, expired[k].j);
}

}  // namespace

DeltaPlan plan_delta(const RttMatrix& matrix,
                     const std::vector<dir::Fingerprint>& nodes, TimePoint now,
                     const DeltaPlanOptions& options) {
  const std::size_t n = nodes.size();
  DeltaPlan plan;
  // Never-measured pairs, in node-index order, straight off the presence
  // rows; the budget keeps the first ones.
  RttMatrix::MissingPairs missing = matrix.missing_pairs(
      nodes, options.budget == 0 ? std::numeric_limits<std::size_t>::max()
                                 : options.budget);
  plan.new_pairs = missing.count;
  plan.pairs = std::move(missing.first);
  plan.dropped_over_budget = missing.count - plan.pairs.size();

  // Expired pairs off the freshness wheel, kept when both ends are members.
  std::unordered_map<dir::Fingerprint, std::size_t> index_of;
  index_of.reserve(n);
  for (std::size_t k = 0; k < n; ++k) index_of.emplace(nodes[k], k);
  std::vector<ExpiredCandidate> expired;
  for (const RttMatrix::PairAge& pa : matrix.expired_pairs(now, options.ttl)) {
    const auto ita = index_of.find(pa.a);
    if (ita == index_of.end()) continue;
    const auto itb = index_of.find(pa.b);
    if (itb == index_of.end()) continue;
    expired.push_back(ExpiredCandidate{std::min(ita->second, itb->second),
                                       std::max(ita->second, itb->second),
                                       pa.measured_at});
  }
  // Every pair is exactly one of missing / expired / fresh.
  plan.fresh_pairs = n * (n - 1) / 2 - plan.new_pairs - expired.size();
  emit_expired(plan, std::move(expired), options.budget);
  return plan;
}

ConsensusDeltaTracker::Delta ConsensusDeltaTracker::observe(
    const std::vector<dir::Fingerprint>& nodes) {
  const std::set<dir::Fingerprint> next(nodes.begin(), nodes.end());
  Delta d;
  for (const dir::Fingerprint& fp : next)
    if (!current_.contains(fp)) d.joined.push_back(fp);
  for (const dir::Fingerprint& fp : current_)
    if (!next.contains(fp)) d.left.push_back(fp);
  current_ = next;
  return d;
}

}  // namespace ting::meas
