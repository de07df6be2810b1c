#include "ting/delta_scan.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <tuple>

#include "util/assert.h"

namespace ting::meas {

bool expired_before(const ExpiredCandidate& l, const ExpiredCandidate& r) {
  return std::tie(l.measured_at, l.i, l.j) < std::tie(r.measured_at, r.i, r.j);
}

namespace {

/// Append the expired candidates to plan.pairs under whatever budget room is
/// left after the new pairs, oldest first per expired_before; the overflow
/// is counted into dropped_over_budget. Shared by plan_delta and the
/// incremental planner so the cut is defined in exactly one place.
void emit_expired(DeltaPlan& plan, std::vector<ExpiredCandidate> expired,
                  std::size_t budget) {
  plan.expired_pairs += expired.size();

  // Budget remaining after the never-measured pairs (which always win: a
  // missing pair costs coverage, a stale one only accuracy).
  std::size_t room = expired.size();
  if (budget != 0) room = budget - std::min(budget, plan.pairs.size());

  if (room >= expired.size()) {
    // Everything fits — just order oldest-first.
    std::sort(expired.begin(), expired.end(), expired_before);
  } else {
    // Freshness heap: keep the `room` oldest candidates in a bounded
    // max-heap (top = freshest of the kept), O(n log room) instead of
    // sorting every stale pair of a large consensus.
    auto fresher = [](const ExpiredCandidate& l, const ExpiredCandidate& r) {
      // max-heap on "older" puts the freshest kept on top
      return expired_before(l, r);
    };
    std::priority_queue<ExpiredCandidate, std::vector<ExpiredCandidate>,
                        decltype(fresher)>
        keep(fresher);
    for (const ExpiredCandidate& c : expired) {
      if (keep.size() < room) {
        keep.push(c);
      } else if (room > 0 && expired_before(c, keep.top())) {
        keep.pop();
        keep.push(c);
      }
    }
    plan.dropped_over_budget += expired.size() - keep.size();
    expired.clear();
    while (!keep.empty()) {
      expired.push_back(keep.top());
      keep.pop();
    }
    std::reverse(expired.begin(), expired.end());  // heap drains freshest-first
  }
  for (const ExpiredCandidate& c : expired) plan.pairs.emplace_back(c.i, c.j);
}

}  // namespace

DeltaPlan plan_delta(const RttMatrix& matrix,
                     const std::vector<dir::Fingerprint>& nodes, TimePoint now,
                     const DeltaPlanOptions& options) {
  DeltaPlan plan;
  std::vector<ExpiredCandidate> expired;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const RttMatrix::Entry* e = matrix.entry(nodes[i], nodes[j]);
      if (e == nullptr) {
        ++plan.new_pairs;
        if (options.budget == 0 || plan.pairs.size() < options.budget)
          plan.pairs.emplace_back(i, j);
        else
          ++plan.dropped_over_budget;
      } else if (now - e->measured_at <= options.ttl) {
        ++plan.fresh_pairs;
      } else {
        expired.push_back(ExpiredCandidate{i, j, e->measured_at});
      }
    }
  }
  emit_expired(plan, std::move(expired), options.budget);
  return plan;
}

std::uint32_t IncrementalDeltaPlanner::intern(const dir::Fingerprint& fp) {
  auto [it, inserted] =
      id_of_.try_emplace(fp, static_cast<std::uint32_t>(fp_by_id_.size()));
  if (inserted) fp_by_id_.push_back(fp);
  return it->second;
}

void IncrementalDeltaPlanner::reset() {
  primed_ = false;
  missing_.clear();
  // The intern table survives: ids stay valid and relays recur.
}

DeltaPlan IncrementalDeltaPlanner::plan_delta_incremental(
    const RttMatrix& matrix, const std::vector<dir::Fingerprint>& nodes,
    const std::vector<dir::Fingerprint>& joined, TimePoint now,
    const DeltaPlanOptions& options) {
  constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();
  const std::size_t n = nodes.size();
  const std::size_t total = n * (n - 1) / 2;

  DeltaPlan plan;
  // Missing pairs of this epoch, node-index pairs in lexicographic order —
  // exactly the set and order plan_delta's census loop would discover.
  std::vector<std::pair<std::size_t, std::size_t>> miss_idx;
  std::vector<ExpiredCandidate> expired;

  if (!primed_) {
    // Prime: the same full O(n²) census as plan_delta, recording the
    // complete missing backlog along the way. Every later epoch pays only
    // for the delta.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const RttMatrix::Entry* e = matrix.entry(nodes[i], nodes[j]);
        if (e == nullptr) {
          miss_idx.emplace_back(i, j);
        } else if (now - e->measured_at <= options.ttl) {
          ++plan.fresh_pairs;
        } else {
          expired.push_back(ExpiredCandidate{i, j, e->measured_at});
        }
      }
    }
  } else {
    std::unordered_map<dir::Fingerprint, std::size_t> index_of;
    index_of.reserve(n * 2);
    for (std::size_t k = 0; k < n; ++k) index_of.emplace(nodes[k], k);

    // Interned id -> index in this epoch's node vector (kAbsent if gone).
    std::vector<std::uint32_t> idx_of_id(fp_by_id_.size(), kAbsent);
    for (std::size_t k = 0; k < n; ++k) {
      auto it = id_of_.find(nodes[k]);
      if (it != id_of_.end())
        idx_of_id[it->second] = static_cast<std::uint32_t>(k);
    }

    std::vector<char> is_joined(n, 0);
    for (const dir::Fingerprint& g : joined) {
      auto it = index_of.find(g);
      TING_CHECK_MSG(it != index_of.end(),
                     "plan_delta_incremental: joined relay not in nodes");
      is_joined[it->second] = 1;
    }

    // Churn-in candidates: every pair touching a joined relay that the
    // matrix has never measured. Rejoining relays often return with their
    // old estimates intact — those pairs are fresh or expired by stamp, not
    // new. A pair of two joined relays is emitted once, from the lower
    // index.
    std::vector<std::pair<std::size_t, std::size_t>> churn_new;
    for (const dir::Fingerprint& g : joined) {
      const std::size_t kg = index_of.find(g)->second;
      for (std::size_t k = 0; k < n; ++k) {
        if (k == kg) continue;
        if (is_joined[k] && k < kg) continue;
        const std::size_t i = std::min(k, kg);
        const std::size_t j = std::max(k, kg);
        if (matrix.contains(nodes[i], nodes[j])) continue;
        churn_new.emplace_back(i, j);
      }
    }
    std::sort(churn_new.begin(), churn_new.end());

    // Backlog survivors: drop pairs measured since the last epoch and pairs
    // touching a relay that left (a rejoin regenerates them as churn-in).
    // The surviving entries keep their relative order under the monotone
    // old-index -> new-index mapping, so no re-sort is needed.
    std::vector<std::pair<std::size_t, std::size_t>> backlog;
    backlog.reserve(missing_.size());
    for (const auto& [a, b] : missing_) {
      const std::uint32_t ia = idx_of_id[a];
      const std::uint32_t ib = idx_of_id[b];
      if (ia == kAbsent || ib == kAbsent) continue;
      if (matrix.contains(fp_by_id_[a], fp_by_id_[b])) continue;
      backlog.emplace_back(std::min<std::size_t>(ia, ib),
                           std::max<std::size_t>(ia, ib));
    }

    // The two lists are disjoint (churn-in pairs touch a relay that was not
    // a member when the backlog was recorded), so a linear merge yields the
    // full missing census in lexicographic order.
    miss_idx.reserve(backlog.size() + churn_new.size());
    std::merge(backlog.begin(), backlog.end(), churn_new.begin(),
               churn_new.end(), std::back_inserter(miss_idx));

    // Expired pairs straight off the freshness wheel (O(expired), already
    // TTL-cut), filtered to current members and mapped to node indices.
    for (const RttMatrix::PairAge& pa :
         matrix.expired_pairs(now, options.ttl)) {
      auto ita = index_of.find(pa.a);
      if (ita == index_of.end()) continue;
      auto itb = index_of.find(pa.b);
      if (itb == index_of.end()) continue;
      const std::size_t i = std::min(ita->second, itb->second);
      const std::size_t j = std::max(ita->second, itb->second);
      expired.push_back(ExpiredCandidate{i, j, pa.measured_at});
    }

    // Every current pair is exactly one of missing / expired / fresh, so
    // the fresh census needs no enumeration.
    plan.fresh_pairs = total - miss_idx.size() - expired.size();
  }

  plan.new_pairs = miss_idx.size();
  const std::size_t emit = options.budget == 0
                               ? miss_idx.size()
                               : std::min(miss_idx.size(), options.budget);
  plan.pairs.reserve(emit);
  for (std::size_t k = 0; k < emit; ++k)
    plan.pairs.emplace_back(miss_idx[k].first, miss_idx[k].second);
  plan.dropped_over_budget += miss_idx.size() - emit;

  emit_expired(plan, std::move(expired), options.budget);

  // Re-intern the census as the next epoch's backlog, in this epoch's
  // index order.
  missing_.clear();
  missing_.reserve(miss_idx.size());
  for (const auto& [i, j] : miss_idx)
    missing_.emplace_back(intern(nodes[i]), intern(nodes[j]));
  primed_ = true;
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
