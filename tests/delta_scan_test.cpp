// Property tests for the consensus-delta planner: churn produces exactly
// the new/expired pairs with no duplicates, priority order holds (new pairs
// first, expired oldest-first), budgets cut from the back, plan_delta equals
// the all-pairs reference census under any node order, relay erasure and
// store reload, and the ConsensusDeltaTracker reports joins/leaves
// correctly.
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

/// The all-pairs census plan_delta replaced, kept as its reference: one
/// entry() probe per node pair, new pairs in index order under the budget,
/// then every expired pair fully sorted by expired_before and cut to the
/// room the new pairs left.
DeltaPlan reference_plan(const RttMatrix& matrix,
                         const std::vector<dir::Fingerprint>& nodes,
                         TimePoint now, const DeltaPlanOptions& options) {
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
  plan.expired_pairs = expired.size();
  std::sort(expired.begin(), expired.end(), expired_before);
  std::size_t room = expired.size();
  if (options.budget != 0)
    room = std::min(room, options.budget - std::min(options.budget,
                                                    plan.pairs.size()));
  for (std::size_t k = 0; k < room; ++k)
    plan.pairs.emplace_back(expired[k].i, expired[k].j);
  plan.dropped_over_budget += expired.size() - room;
  return plan;
}

/// plan_delta's contract: identical pairs, in identical order, and
/// identical census counters versus the reference.
void expect_same_plan(const DeltaPlan& got, const DeltaPlan& want,
                      const char* label) {
  EXPECT_EQ(got.pairs, want.pairs) << label;
  EXPECT_EQ(got.new_pairs, want.new_pairs) << label;
  EXPECT_EQ(got.expired_pairs, want.expired_pairs) << label;
  EXPECT_EQ(got.fresh_pairs, want.fresh_pairs) << label;
  EXPECT_EQ(got.dropped_over_budget, want.dropped_over_budget) << label;
}

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
  // The bounded cut must select exactly the same pairs, in the same order,
  // as sorting every expired candidate and taking the oldest K.
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

TEST(DeltaScanTest, PlanMatchesReferenceCensus) {
  // Missing, expired and fresh pairs together, planned unbudgeted, under a
  // budget that cuts the expired tail, and under one that cuts new pairs.
  const auto nodes = node_set(8);
  RttMatrix m;
  m.set(nodes[1], nodes[4], 1.0, at(5), 1);   // expired
  m.set(nodes[2], nodes[6], 1.0, at(95), 1);  // fresh
  m.set(nodes[0], nodes[7], 1.0, at(2), 1);   // expired, older
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  const std::size_t budgets[] = {0, 27, 3};
  for (const std::size_t budget : budgets) {
    opt.budget = budget;
    char label[32];
    std::snprintf(label, sizeof(label), "budget %zu", budget);
    expect_same_plan(plan_delta(m, nodes, at(100), opt),
                     reference_plan(m, nodes, at(100), opt), label);
  }
}

TEST(DeltaScanTest, IncrementalMatchesFullAcrossChurnEpochs) {
  // A 16-epoch randomized daemon life: membership churns (joins, leaves,
  // rejoins) and the node order is reshuffled every epoch; each epoch
  // absorbs only a prefix of its plan (failures and budget cuts leave pairs
  // missing), stamps age past the TTL, budgets alternate between unlimited
  // and tight, relays are erased outright, and halfway through the store is
  // reloaded from its binary image (which reassigns every relay id). At
  // every epoch plan_delta must equal the from-scratch census.
  Rng rng(1234);
  const std::size_t universe = 16;
  std::vector<bool> member(universe, false);
  for (std::size_t i = 0; i < 10; ++i) member[i] = true;
  RttMatrix m;
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(30);
  std::size_t expired_seen = 0;
  for (int epoch = 0; epoch < 16; ++epoch) {
    std::vector<dir::Fingerprint> nodes;
    for (std::size_t i = 0; i < universe; ++i)
      if (member[i]) nodes.push_back(fp(i));
    rng.shuffle(nodes);
    opt.budget = (epoch % 3 == 0)
                     ? 0
                     : static_cast<std::size_t>(rng.uniform_int(1, 25));
    const TimePoint now = at(100 + epoch * 10);
    const DeltaPlan want = reference_plan(m, nodes, now, opt);
    const DeltaPlan got = plan_delta(m, nodes, now, opt);
    char label[32];
    std::snprintf(label, sizeof(label), "epoch %d", epoch);
    expect_same_plan(got, want, label);
    expect_no_duplicates(got);
    expired_seen += want.expired_pairs;
    // Absorb a random prefix of the plan — the daemon stamps at the epoch
    // clock, and an interrupted epoch leaves the tail unmeasured.
    const std::size_t done =
        want.pairs.empty()
            ? 0
            : static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<std::int64_t>(want.pairs.size())));
    for (std::size_t k = 0; k < done; ++k)
      m.set(nodes[want.pairs[k].first], nodes[want.pairs[k].second], 5.0,
            now, 1);
    // Flip a couple of memberships; leaves keep their matrix entries.
    for (int c = 0; c < 2; ++c) {
      const auto v =
          static_cast<std::size_t>(rng.uniform_int(0, universe - 1));
      member[v] = !member[v];
    }
    if (std::count(member.begin(), member.end(), true) < 2)
      member[0] = member[1] = true;
    // Now and then a relay's estimates are dropped outright.
    if (epoch % 4 == 1)
      m.erase_relay(fp(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(universe) - 1))));
    // A restarted process loads the store with ids in record order.
    if (epoch == 8) m = RttMatrix::from_bin(m.to_bin());
  }
  EXPECT_GT(expired_seen, 0u);  // the TTL path ran, not just new pairs
}

TEST(DeltaScanTest, EqualStampBudgetCutIsDeterministicPrefix) {
  // The daemon restamps a whole epoch with one clock value, so most expired
  // candidates tie on measured_at. The tie must break on the pair index:
  // the budgeted plan is exactly the unbudgeted plan's prefix, and the
  // reference census agrees.
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
  expect_same_plan(cut, reference_plan(m, nodes, at(100), bounded),
                   "equal-stamp budgeted");
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

TEST(DeltaScanTest, ReloadedStoreRederivesCrashedEpoch) {
  // A crash-resumed daemon process loads the persisted store, whose relay
  // ids follow record order rather than the order the crashed process
  // inserted pairs in. Its plan must be exactly the worklist the crashed
  // process was running — and re-planning the same epoch (a stale journal
  // replay) is idempotent.
  const auto nodes = node_set(10);
  RttMatrix built;
  std::int64_t t = 0;
  for (std::size_t i = nodes.size(); i-- > 0;)
    for (std::size_t j = 0; j < i; ++j) {
      t = (t * 31 + 17) % 90;
      if (t % 3 == 0) continue;  // leave holes (missing pairs)
      built.set(nodes[i], nodes[j], 1.0, at(t), 1);
    }
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(25);
  opt.budget = 13;
  const RttMatrix loaded = RttMatrix::from_bin(built.to_bin());
  const DeltaPlan crashed = plan_delta(built, nodes, at(100), opt);
  const DeltaPlan resumed = plan_delta(loaded, nodes, at(100), opt);
  expect_same_plan(crashed, reference_plan(built, nodes, at(100), opt),
                   "building process");
  expect_same_plan(resumed, crashed, "reloaded store");
  expect_same_plan(plan_delta(loaded, nodes, at(100), opt), crashed,
                   "journal replay");
  EXPECT_GT(crashed.new_pairs, 0u);
  EXPECT_GT(crashed.expired_pairs, 0u);
}

TEST(DeltaScanTest, PlanSeesHolesAfterEraseRelay) {
  const auto nodes = node_set(6);
  RttMatrix m;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j)
      m.set(nodes[i], nodes[j], 1.0, at(95), 1);
  DeltaPlanOptions opt;
  opt.ttl = Duration::seconds(10);
  EXPECT_TRUE(plan_delta(m, nodes, at(100), opt).pairs.empty());
  // erase_relay() clears the relay's presence bits in every row; the very
  // next plan sees the holes, with no planner state to reset.
  m.erase_relay(nodes[2]);
  const DeltaPlan plan = plan_delta(m, nodes, at(100), opt);
  expect_same_plan(plan, reference_plan(m, nodes, at(100), opt),
                   "post-erase census");
  EXPECT_EQ(plan.new_pairs, 5u);  // every pair touching the erased relay
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
