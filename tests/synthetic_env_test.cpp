// Tests for the paper-scale synthetic daemon environment: seeded runs are
// byte-deterministic, per-pair fault draws are pure functions of the pair
// seed, crash/resume reproduces an uninterrupted run bit-for-bit, and at
// small n the daemon behaves identically (plans, churn, estimates within
// jitter tolerance) over the synthetic and full-fidelity testbed backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/daemon_world.h"
#include "scenario/synthetic_env.h"
#include "ting/daemon.h"
#include "ting/rtt_matrix.h"

namespace ting::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing file: " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

SyntheticEnvOptions synth_opts(std::uint64_t seed, std::size_t relays,
                               double churn) {
  SyntheticEnvOptions o;
  o.relays = relays;
  o.testbed.seed = seed;
  o.testbed.differential_fraction = 0;
  o.churn.seed = seed + 1;
  o.churn.churn_rate = churn;
  o.churn.rejoin_rate = 0.5;
  return o;
}

meas::DaemonOptions daemon_opts(const std::string& out, std::size_t epochs) {
  meas::DaemonOptions d;
  d.epochs = epochs;
  d.out = out;
  d.seed = 5;
  d.config_tag = "synthetic-test";
  d.half_cache = false;  // no circuits to memoize in a synthetic world
  d.coverage_target = 0.99;
  return d;
}

TEST(SyntheticEnvTest, SeededRunsAreByteDeterministic) {
  const std::string out1 = ::testing::TempDir() + "/synth_det1.tingmx";
  const std::string out2 = ::testing::TempDir() + "/synth_det2.tingmx";
  for (const std::string& out : {out1, out2}) {
    SyntheticEnvOptions so = synth_opts(17, 40, 0.05);
    so.failure_rate = 0.02;
    SyntheticDaemonEnvironment env(so);
    meas::ScanDaemon daemon(env, daemon_opts(out, 3));
    const meas::DaemonReport r = daemon.run();
    EXPECT_FALSE(r.interrupted);
    ASSERT_EQ(r.epochs.size(), 3u);
    EXPECT_GT(r.matrix_pairs, 0u);
    EXPECT_GT(r.matrix_bytes, 0u);
  }
  EXPECT_EQ(read_file(out1), read_file(out2));
}

TEST(SyntheticEnvTest, OutcomesArePureFunctionsOfPairSeed) {
  SyntheticEnvOptions so = synth_opts(23, 12, 0.0);
  so.failure_rate = 0.3;
  SyntheticDaemonEnvironment env(so);
  env.advance_epoch(0);
  const std::vector<dir::Fingerprint> nodes = env.nodes();
  meas::ParallelScanner::PairList pairs;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = i + 1; j < nodes.size(); ++j) pairs.emplace_back(i, j);

  meas::ScanOptions opt;
  opt.pair_seed = 123;
  meas::RttMatrix m1, m2;
  const meas::ScanReport r1 = env.scan_pairs(nodes, pairs, m1, opt, {});
  const meas::ScanReport r2 = env.scan_pairs(nodes, pairs, m2, opt, {});
  EXPECT_GT(r1.failed, 0u);
  EXPECT_GT(r1.measured, 0u);
  EXPECT_EQ(r1.measured, r2.measured);
  EXPECT_EQ(r1.failed, r2.failed);
  ASSERT_EQ(r1.failed_pairs.size(), r2.failed_pairs.size());
  for (std::size_t k = 0; k < r1.failed_pairs.size(); ++k) {
    EXPECT_EQ(r1.failed_pairs[k].a, r2.failed_pairs[k].a);
    EXPECT_EQ(r1.failed_pairs[k].b, r2.failed_pairs[k].b);
  }
  // Every estimate is identical, sits in [base, base + noise), and a
  // re-scan keyed by the pair (not the plan order) reproduces it.
  for (const auto& [i, j] : pairs) {
    const auto a = m1.rtt(nodes[i], nodes[j]);
    const auto b = m2.rtt(nodes[i], nodes[j]);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) continue;
    EXPECT_EQ(*a, *b);
    const double base = env.base_rtt_ms(nodes[i], nodes[j]);
    EXPECT_GE(*a, base);
    EXPECT_LT(*a, base + so.noise_ms);
  }
  // A different pair seed draws a different epoch of jitter.
  meas::ScanOptions other = opt;
  other.pair_seed = 124;
  meas::RttMatrix m3;
  (void)env.scan_pairs(nodes, pairs, m3, other, {});
  bool any_differs = false;
  for (const auto& [i, j] : pairs) {
    const auto a = m1.rtt(nodes[i], nodes[j]);
    const auto c = m3.rtt(nodes[i], nodes[j]);
    if (a.has_value() != c.has_value() ||
        (a.has_value() && *a != *c)) {
      any_differs = true;
      break;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(SyntheticEnvTest, StopAndResumeIsByteIdentical) {
  const std::string ref_out = ::testing::TempDir() + "/synth_ref.tingmx";
  const std::string cut_out = ::testing::TempDir() + "/synth_cut.tingmx";
  {
    SyntheticDaemonEnvironment env(synth_opts(31, 30, 0.05));
    meas::ScanDaemon daemon(env, daemon_opts(ref_out, 2));
    EXPECT_FALSE(daemon.run().interrupted);
  }
  {
    SyntheticDaemonEnvironment env(synth_opts(31, 30, 0.05));
    std::atomic<bool> stop{false};
    meas::DaemonOptions opts = daemon_opts(cut_out, 2);
    opts.stop = &stop;
    meas::ScanDaemon daemon(env, opts);
    std::size_t results = 0;
    const meas::DaemonReport r = daemon.run(
        {}, [&](std::size_t, std::size_t, const meas::PairResult&) {
          if (++results == 25) stop.store(true);
        });
    EXPECT_TRUE(r.interrupted);
    ASSERT_EQ(r.epochs.size(), 1u);
    EXPECT_GT(r.epochs[0].scan.interrupted_pairs, 0u);
  }
  {
    SyntheticDaemonEnvironment env(synth_opts(31, 30, 0.05));
    meas::DaemonOptions opts = daemon_opts(cut_out, 2);
    opts.resume = true;
    meas::ScanDaemon daemon(env, opts);
    const meas::DaemonReport r = daemon.run();
    EXPECT_FALSE(r.interrupted);
    EXPECT_GT(r.epochs.front().journal_recovered, 0u);
  }
  EXPECT_EQ(read_file(cut_out), read_file(ref_out));
}

TEST(SyntheticEnvTest, MatchesTestbedEnvironmentAtSmallScale) {
  // Same topology seed, same churn feed: the daemon must see the same
  // consensus sequence and derive the same plans over either backend, and
  // the synthetic estimates must agree with the full simulation's within
  // the jitter + relay-forwarding tolerance.
  const std::uint64_t seed = 47;
  const double churn = 0.1;

  DaemonWorldOptions wo;
  wo.relays = 10;
  wo.testbed.seed = seed;
  wo.testbed.differential_fraction = 0;
  wo.ting.samples = 8;
  wo.churn.seed = seed + 1;
  wo.churn.churn_rate = churn;
  wo.churn.rejoin_rate = 0.5;

  {
    // Both backends enumerate the same relays in the same order.
    TestbedDaemonEnvironment tb(wo);
    SyntheticDaemonEnvironment sy(synth_opts(seed, 10, churn));
    EXPECT_EQ(tb.nodes(), sy.nodes());
  }

  std::vector<meas::EpochStats> tb_epochs, sy_epochs;
  const std::string tb_out = ::testing::TempDir() + "/sanity_tb.tingmx";
  const std::string sy_out = ::testing::TempDir() + "/sanity_sy.tingmx";
  meas::RttMatrix tb_matrix, sy_matrix;
  {
    TestbedDaemonEnvironment env(wo);
    meas::ScanDaemon daemon(env, daemon_opts(tb_out, 3));
    daemon.run([&](const meas::EpochStats& s) { tb_epochs.push_back(s); });
    tb_matrix = daemon.matrix();
  }
  {
    SyntheticDaemonEnvironment env(synth_opts(seed, 10, churn));
    meas::ScanDaemon daemon(env, daemon_opts(sy_out, 3));
    daemon.run([&](const meas::EpochStats& s) { sy_epochs.push_back(s); });
    sy_matrix = daemon.matrix();
  }

  ASSERT_EQ(tb_epochs.size(), sy_epochs.size());
  for (std::size_t e = 0; e < tb_epochs.size(); ++e) {
    const meas::EpochStats& t = tb_epochs[e];
    const meas::EpochStats& s = sy_epochs[e];
    EXPECT_EQ(t.nodes, s.nodes) << "epoch " << e;
    EXPECT_EQ(t.joined, s.joined) << "epoch " << e;
    EXPECT_EQ(t.left, s.left) << "epoch " << e;
    EXPECT_EQ(t.plan.pairs, s.plan.pairs) << "epoch " << e;
    EXPECT_EQ(t.plan.new_pairs, s.plan.new_pairs) << "epoch " << e;
    EXPECT_EQ(t.plan.fresh_pairs, s.plan.fresh_pairs) << "epoch " << e;
    EXPECT_EQ(t.scan.failed, 0u) << "epoch " << e;
    EXPECT_EQ(s.scan.failed, 0u) << "epoch " << e;
  }

  // The two stores cover the same pairs, with estimates within tolerance.
  // The testbed measures through live relays, which adds a few ms of
  // forwarding/processing delay above the shared base-RTT table that the
  // synthetic model intentionally omits, so the bound is looser than the
  // cross-engine one in scheduler_test.
  ASSERT_EQ(tb_matrix.size(), sy_matrix.size());
  const std::vector<dir::Fingerprint> relays = tb_matrix.nodes();
  SyntheticDaemonEnvironment truth(synth_opts(seed, 10, churn));
  for (std::size_t i = 0; i < relays.size(); ++i) {
    for (std::size_t j = i + 1; j < relays.size(); ++j) {
      const auto t = tb_matrix.rtt(relays[i], relays[j]);
      const auto s = sy_matrix.rtt(relays[i], relays[j]);
      ASSERT_EQ(t.has_value(), s.has_value());
      if (!t.has_value()) continue;
      EXPECT_NEAR(*s, *t, std::max(6.0, 0.2 * *t))
          << relays[i].hex() << " x " << relays[j].hex();
      EXPECT_GE(*s, truth.base_rtt_ms(relays[i], relays[j]));
    }
  }
}

}  // namespace
}  // namespace ting::scenario
