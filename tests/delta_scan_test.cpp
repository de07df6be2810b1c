// Property tests for the consensus-delta planner: churn produces exactly
// the new/expired pairs with no duplicates, priority order holds (new pairs
// first, expired oldest-first), budgets cut from the back, and the
// ConsensusDeltaTracker reports joins/leaves correctly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "ting/delta_scan.h"
#include "ting/rtt_matrix.h"
#include "util/rng.h"

namespace ting::meas {
namespace {

dir::Fingerprint fp(std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%040zx", i);
  return dir::Fingerprint::from_hex(buf);
}

TimePoint at(std::int64_t s) { return TimePoint::from_ns(s * 1'000'000'000); }

std::vector<dir::Fingerprint> node_set(std::size_t n) {
  std::vector<dir::Fingerprint> nodes;
  for (std::size_t i = 0; i < n; ++i) nodes.push_back(fp(i));
  return nodes;
}

std::size_t all_pairs(std::size_t n) { return n * (n - 1) / 2; }

/// No pair appears twice in a plan, in either orientation.
void expect_no_duplicates(const DeltaPlan& plan) {
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const auto& [i, j] : plan.pairs) {
    EXPECT_NE(i, j);
    const auto key = std::minmax(i, j);
    EXPECT_TRUE(seen.insert(key).second)
        << "duplicate pair (" << i << "," << j << ")";
  }
}

TEST(DeltaScanTest, EmptyMatrixPlansAllPairs) {
  const auto nodes = node_set(7);
  const DeltaPlan plan = plan_delta(RttMatrix{}, nodes, at(100));
  EXPECT_EQ(plan.pairs.size(), all_pairs(7));
  EXPECT_EQ(plan.new_pairs, all_pairs(7));
  EXPECT_EQ(plan.expired_pairs, 0u);
  EXPECT_EQ(plan.fresh_pairs, 0u);
  EXPECT_EQ(plan.dropped_over_budget, 0u);
  expect_no_duplicates(plan);
}

TEST(DeltaScanTest, FullyFreshMatrixPlansNothing) {
  const auto nodes = node_set(6);
  RttMatrix m;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 10.0, at(95), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  EXPECT_TRUE(plan.pairs.empty());
  EXPECT_EQ(plan.fresh_pairs, all_pairs(6));
}

TEST(DeltaScanTest, ChurnYieldsExactlyNewAndExpiredPairs) {
  // Matrix covers nodes {0..4} freshly except: pair (1,2) is expired, and
  // node 5 just joined (all 5 of its pairs are new). Nothing else plans.
  const auto nodes = node_set(6);
  RttMatrix m;
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = i + 1; j < 5; ++j)
      m.set(nodes[i], nodes[j], 10.0, (i == 1 && j == 2) ? at(10) : at(95), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  EXPECT_EQ(plan.new_pairs, 5u);
  EXPECT_EQ(plan.expired_pairs, 1u);
  EXPECT_EQ(plan.fresh_pairs, all_pairs(5) - 1);
  ASSERT_EQ(plan.pairs.size(), 6u);
  expect_no_duplicates(plan);
  // New pairs come first; the expired pair is last.
  for (std::size_t k = 0; k < 5; ++k)
    EXPECT_TRUE(plan.pairs[k].first == 5 || plan.pairs[k].second == 5);
  EXPECT_EQ(plan.pairs.back(), (std::pair<std::size_t, std::size_t>{1, 2}));
}

TEST(DeltaScanTest, ExpiredPairsPlannedOldestFirst) {
  const auto nodes = node_set(4);
  RttMatrix m;
  m.set(nodes[0], nodes[1], 1.0, at(30), 1);
  m.set(nodes[0], nodes[2], 1.0, at(10), 1);
  m.set(nodes[0], nodes[3], 1.0, at(20), 1);
  m.set(nodes[1], nodes[2], 1.0, at(95), 1);  // fresh
  m.set(nodes[1], nodes[3], 1.0, at(95), 1);  // fresh
  m.set(nodes[2], nodes[3], 1.0, at(95), 1);  // fresh
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  ASSERT_EQ(plan.pairs.size(), 3u);
  EXPECT_EQ(plan.pairs[0], (std::pair<std::size_t, std::size_t>{0, 2}));  // t=10
  EXPECT_EQ(plan.pairs[1], (std::pair<std::size_t, std::size_t>{0, 3}));  // t=20
  EXPECT_EQ(plan.pairs[2], (std::pair<std::size_t, std::size_t>{0, 1}));  // t=30
}

TEST(DeltaScanTest, BudgetKeepsNewPairsOverExpired) {
  // 3 new pairs (node 3 joined a 4-node set) + 3 expired; budget 4 must
  // keep all 3 new pairs and only the single oldest expired pair.
  const auto nodes = node_set(4);
  RttMatrix m;
  m.set(nodes[0], nodes[1], 1.0, at(30), 1);
  m.set(nodes[0], nodes[2], 1.0, at(10), 1);
  m.set(nodes[1], nodes[2], 1.0, at(20), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  opt.budget = 4;
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  // new/expired count the census (pre-budget); the cut shows up in
  // dropped_over_budget and the worklist length.
  EXPECT_EQ(plan.new_pairs, 3u);
  EXPECT_EQ(plan.expired_pairs, 3u);
  EXPECT_EQ(plan.dropped_over_budget, 2u);
  ASSERT_EQ(plan.pairs.size(), 4u);
  expect_no_duplicates(plan);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_TRUE(plan.pairs[k].first == 3 || plan.pairs[k].second == 3);
  EXPECT_EQ(plan.pairs[3], (std::pair<std::size_t, std::size_t>{0, 2}));  // t=10
}

TEST(DeltaScanTest, BudgetTruncatesNewPairs) {
  const auto nodes = node_set(6);
  DeltaPlanOptions opt;
  opt.budget = 4;
  const DeltaPlan plan = plan_delta(RttMatrix{}, nodes, at(1), opt);
  EXPECT_EQ(plan.pairs.size(), 4u);
  EXPECT_EQ(plan.new_pairs, all_pairs(6));  // census, not kept
  EXPECT_EQ(plan.dropped_over_budget, all_pairs(6) - 4);
  expect_no_duplicates(plan);
}

TEST(DeltaScanTest, BudgetedExpiredSelectionMatchesFullSort) {
  // The bounded-heap cut must select exactly the same pairs, in the same
  // order, as sorting every expired candidate and taking the oldest K.
  const auto nodes = node_set(10);
  RttMatrix m;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 1.0, at((t = (t * 31 + 17) % 80)), 1);
  DeltaPlanOptions unbounded;
  unbounded.ttl = Duration::seconds(10);
  DeltaPlanOptions bounded = unbounded;
  bounded.budget = 11;
  const DeltaPlan full = plan_delta(m, nodes, at(100), unbounded);
  const DeltaPlan cut = plan_delta(m, nodes, at(100), bounded);
  ASSERT_EQ(cut.pairs.size(), 11u);
  EXPECT_EQ(cut.dropped_over_budget, full.pairs.size() - 11);
  for (std::size_t k = 0; k < 11; ++k) EXPECT_EQ(cut.pairs[k], full.pairs[k]);
}

TEST(DeltaScanTest, PlanIsPureFunctionOfInputs) {
  const auto nodes = node_set(8);
  RttMatrix m;
  m.set(nodes[2], nodes[5], 1.0, at(3), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(50);
  opt.budget = 9;
  const DeltaPlan p1 = plan_delta(m, nodes, at(100), opt);
  const DeltaPlan p2 = plan_delta(m, nodes, at(100), opt);
  EXPECT_EQ(p1.pairs, p2.pairs);
}

/// The incremental planner's equivalence contract: identical pairs and
/// identical census counters versus plan_delta over the same inputs.
void expect_same_plan(const DeltaPlan& inc, const DeltaPlan& full,
                      const char* label) {
  EXPECT_EQ(inc.pairs, full.pairs) << label;
  EXPECT_EQ(inc.new_pairs, full.new_pairs) << label;
  EXPECT_EQ(inc.expired_pairs, full.expired_pairs) << label;
  EXPECT_EQ(inc.fresh_pairs, full.fresh_pairs) << label;
  EXPECT_EQ(inc.dropped_over_budget, full.dropped_over_budget) << label;
}

TEST(DeltaScanTest, IncrementalUnprimedMatchesFullCensus) {
  const auto nodes = node_set(8);
  RttMatrix m;
  m.set(nodes[1], nodes[4], 1.0, at(5), 1);   // expired
  m.set(nodes[2], nodes[6], 1.0, at(95), 1);  // fresh
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  IncrementalDeltaPlanner planner;
  EXPECT_FALSE(planner.primed());
  const DeltaPlan full = plan_delta(m, nodes, at(100), opt);
  const DeltaPlan inc =
      planner.plan_delta_incremental(m, nodes, {}, at(100), opt);
  expect_same_plan(inc, full, "bootstrap census");
  EXPECT_TRUE(planner.primed());
  EXPECT_EQ(planner.backlog_pairs(), full.new_pairs);
  // reset() forgets the backlog; the next call is a full census again.
  planner.reset();
  EXPECT_FALSE(planner.primed());
  const DeltaPlan again =
      planner.plan_delta_incremental(m, nodes, {}, at(100), opt);
  expect_same_plan(again, full, "post-reset census");
}

TEST(DeltaScanTest, IncrementalMatchesFullAcrossChurnEpochs) {
  // A 12-epoch randomized daemon life: membership churns (joins, leaves,
  // rejoins), each epoch absorbs only a prefix of its plan (failures and
  // budget cuts leave pairs missing), stamps age past the TTL, and budgets
  // alternate between unlimited and tight. At every epoch the incremental
  // plan must be identical to the from-scratch census.
  Rng rng(1234);
  const std::size_t universe = 16;
  std::vector<bool> member(universe, false);
  for (std::size_t i = 0; i < 10; ++i) member[i] = true;
  RttMatrix m;
  IncrementalDeltaPlanner planner;
  ConsensusDeltaTracker tracker;
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(30);
  for (int epoch = 0; epoch < 12; ++epoch) {
    // Contract (a): survivors keep construction-order enumeration.
    std::vector<dir::Fingerprint> nodes;
    for (std::size_t i = 0; i < universe; ++i)
      if (member[i]) nodes.push_back(fp(i));
    const auto delta = tracker.observe(nodes);
    opt.budget = (epoch % 3 == 0)
                     ? 0
                     : static_cast<std::size_t>(rng.uniform_int(1, 25));
    const TimePoint now = at(100 + epoch * 10);
    const DeltaPlan full = plan_delta(m, nodes, now, opt);
    const DeltaPlan inc =
        planner.plan_delta_incremental(m, nodes, delta.joined, now, opt);
    char label[32];
    std::snprintf(label, sizeof(label), "epoch %d", epoch);
    expect_same_plan(inc, full, label);
    expect_no_duplicates(inc);
    // Absorb a random prefix of the plan — the daemon stamps at the epoch
    // clock, and an interrupted epoch leaves the tail unmeasured.
    const std::size_t done =
        full.pairs.empty()
            ? 0
            : static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(full.pairs.size())));
    for (std::size_t k = 0; k < done; ++k)
      m.set(nodes[full.pairs[k].first], nodes[full.pairs[k].second], 5.0, now,
            1);
    // Flip a couple of memberships (leaves keep their matrix entries, per
    // contract (c); rejoins arrive through the tracker's joined set).
    for (int c = 0; c < 2; ++c) {
      const auto v =
          static_cast<std::size_t>(rng.uniform_int(0, universe - 1));
      member[v] = !member[v];
    }
    if (std::count(member.begin(), member.end(), true) < 2)
      member[0] = member[1] = true;
  }
}

TEST(DeltaScanTest, EqualStampBudgetCutIsDeterministicPrefix) {
  // The daemon restamps a whole epoch with one clock value, so most expired
  // candidates tie on measured_at. The tie must break on the pair index:
  // the budgeted plan is exactly the unbudgeted plan's prefix, on both the
  // full-sort path and the bounded-heap path, and the incremental planner
  // agrees.
  const auto nodes = node_set(9);
  RttMatrix m;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 1.0, at(5), 1);
  DeltaPlanOptions unbounded;
  unbounded.ttl = Duration::seconds(10);
  DeltaPlanOptions bounded = unbounded;
  bounded.budget = 7;
  const DeltaPlan full = plan_delta(m, nodes, at(100), unbounded);
  const DeltaPlan cut = plan_delta(m, nodes, at(100), bounded);
  ASSERT_EQ(full.pairs.size(), all_pairs(9));
  ASSERT_EQ(cut.pairs.size(), 7u);
  for (std::size_t k = 0; k < 7; ++k) EXPECT_EQ(cut.pairs[k], full.pairs[k]);
  IncrementalDeltaPlanner planner;
  const DeltaPlan inc =
      planner.plan_delta_incremental(m, nodes, {}, at(100), bounded);
  expect_same_plan(inc, cut, "equal-stamp budgeted");
}

TEST(DeltaScanTest, ExpiredBeforeIsStrictTotalOrder) {
  const ExpiredCandidate a{1, 2, at(10)};
  const ExpiredCandidate b{0, 3, at(20)};
  const ExpiredCandidate c{1, 3, at(10)};
  const ExpiredCandidate d{1, 2, at(10)};
  EXPECT_TRUE(expired_before(a, b));   // older stamp wins
  EXPECT_FALSE(expired_before(b, a));
  EXPECT_TRUE(expired_before(a, c));   // equal stamps: index pair decides
  EXPECT_FALSE(expired_before(c, a));
  EXPECT_FALSE(expired_before(a, d));  // irreflexive on equals
}

TEST(DeltaScanTest, IncrementalFreshPlannerRederivesCrashedEpoch) {
  // A crash-resumed daemon process constructs a brand-new planner against
  // the persisted matrix. Its first (unprimed) call must re-derive exactly
  // the worklist the crashed process was running — and re-planning the same
  // epoch twice (a stale journal replay) is idempotent.
  const auto nodes = node_set(10);
  RttMatrix m;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      t = (t * 31 + 17) % 90;
      if (t % 3 == 0) continue;  // leave holes (missing pairs)
      m.set(nodes[i], nodes[j], 1.0, at(t), 1);
    }
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(25);
  opt.budget = 13;
  IncrementalDeltaPlanner survivor;
  (void)survivor.plan_delta_incremental(m, nodes, {}, at(60), opt);
  const DeltaPlan primed =
      survivor.plan_delta_incremental(m, nodes, {}, at(100), opt);
  IncrementalDeltaPlanner restarted;
  const DeltaPlan resumed =
      restarted.plan_delta_incremental(m, nodes, {}, at(100), opt);
  const DeltaPlan full = plan_delta(m, nodes, at(100), opt);
  expect_same_plan(primed, full, "primed replan");
  expect_same_plan(resumed, full, "fresh-planner resume");
  // Stale-journal replay: same inputs again, same plan again.
  const DeltaPlan replay =
      restarted.plan_delta_incremental(m, nodes, {}, at(100), opt);
  expect_same_plan(replay, full, "journal replay");
}

TEST(DeltaScanTest, IncrementalResetRequiredAfterEraseRelay) {
  const auto nodes = node_set(6);
  RttMatrix m;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 1.0, at(95), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  IncrementalDeltaPlanner planner;
  (void)planner.plan_delta_incremental(m, nodes, {}, at(100), opt);
  // erase_relay() removes entries, which the backlog cannot observe —
  // contract (c) says reset. After reset the census sees the new holes.
  m.erase_relay(nodes[2]);
  planner.reset();
  const DeltaPlan full = plan_delta(m, nodes, at(100), opt);
  const DeltaPlan inc =
      planner.plan_delta_incremental(m, nodes, {}, at(100), opt);
  expect_same_plan(inc, full, "post-erase census");
  EXPECT_EQ(full.new_pairs, 5u);  // every pair touching the erased relay
}

TEST(DeltaScanTest, TrackerReportsJoinsAndLeaves) {
  ConsensusDeltaTracker tracker;
  const auto first = tracker.observe({fp(1), fp(2), fp(3)});
  EXPECT_EQ(first.joined.size(), 3u);
  EXPECT_TRUE(first.left.empty());

  const auto delta = tracker.observe({fp(2), fp(3), fp(4), fp(5)});
  ASSERT_EQ(delta.joined.size(), 2u);
  EXPECT_EQ(delta.joined[0], fp(4));
  EXPECT_EQ(delta.joined[1], fp(5));
  ASSERT_EQ(delta.left.size(), 1u);
  EXPECT_EQ(delta.left[0], fp(1));
  EXPECT_EQ(tracker.current().size(), 4u);

  const auto none = tracker.observe({fp(2), fp(3), fp(4), fp(5)});
  EXPECT_TRUE(none.joined.empty());
  EXPECT_TRUE(none.left.empty());
}

}  // namespace
}  // namespace ting::meas
