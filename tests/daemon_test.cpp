// End-to-end tests for the continuous scan daemon: coverage convergence
// under consensus churn, delta-only follow-up epochs, byte-identical
// crash/resume, shard-count invariance, and resume safety rails.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>

#include "scenario/daemon_world.h"
#include "ting/daemon.h"
#include "ting/rtt_matrix.h"
#include "util/assert.h"

namespace ting::meas {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing file: " << path;
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

/// Small, fast world: 10 relays, few samples, no protocol differentials.
scenario::DaemonWorldOptions small_world(std::uint64_t seed, double churn) {
  scenario::DaemonWorldOptions o;
  o.relays = 10;
  o.testbed.seed = seed;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 8;
  o.churn.seed = seed + 1;
  o.churn.churn_rate = churn;
  o.churn.rejoin_rate = 0.5;
  return o;
}

DaemonOptions daemon_opts(const std::string& out, std::size_t epochs) {
  DaemonOptions d;
  d.epochs = epochs;
  d.out = out;
  d.seed = 5;
  d.config_tag = "daemon-test";
  d.coverage_target = 0.99;
  return d;
}

TEST(ScanDaemonTest, ConvergesUnderChurnAndScansOnlyDeltas) {
  scenario::TestbedDaemonEnvironment env(small_world(11, 0.1));
  const std::string out = ::testing::TempDir() + "/daemon_churn.tingmx";
  ScanDaemon daemon(env, daemon_opts(out, 3));
  const DaemonReport report = daemon.run();

  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_TRUE(report.converged);
  EXPECT_DOUBLE_EQ(report.final_coverage, 1.0);
  for (const EpochStats& e : report.epochs) {
    EXPECT_EQ(e.scan.failed, 0u);
    EXPECT_DOUBLE_EQ(e.coverage.coverage(), 1.0);
  }

  // Epoch 0 measures the full mesh; later epochs only the churn delta.
  const EpochStats& first = report.epochs.front();
  EXPECT_EQ(first.plan.new_pairs, first.nodes * (first.nodes - 1) / 2);
  for (std::size_t e = 1; e < report.epochs.size(); ++e) {
    const EpochStats& s = report.epochs[e];
    EXPECT_GT(s.plan.fresh_pairs, 0u);
    EXPECT_LT(s.scan.pairs_total, s.nodes * (s.nodes - 1) / 2)
        << "epoch " << e << " rescanned the full mesh";
    // Everything planned is new (TTL is a week; nothing expires in hours).
    EXPECT_EQ(s.plan.expired_pairs, 0u);
  }

  // The on-disk artifact matches the in-memory matrix bit for bit.
  EXPECT_EQ(read_file(out), daemon.matrix().to_bin());
}

TEST(ScanDaemonTest, ZeroChurnFollowUpEpochsPlanNothing) {
  scenario::TestbedDaemonEnvironment env(small_world(12, 0.0));
  const std::string out = ::testing::TempDir() + "/daemon_static.tingmx";
  ScanDaemon daemon(env, daemon_opts(out, 3));
  const DaemonReport report = daemon.run();

  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_TRUE(report.converged);
  for (std::size_t e = 1; e < report.epochs.size(); ++e) {
    EXPECT_TRUE(report.epochs[e].plan.pairs.empty());
    EXPECT_EQ(report.epochs[e].scan.measured, 0u);
  }
}

TEST(ScanDaemonTest, BudgetSpreadsInitialMeshAcrossEpochs) {
  scenario::TestbedDaemonEnvironment env(small_world(13, 0.0));
  const std::string out = ::testing::TempDir() + "/daemon_budget.tingmx";
  DaemonOptions opts = daemon_opts(out, 4);
  opts.budget = 15;  // 10 relays = 45 pairs -> exactly 3 epochs to cover
  ScanDaemon daemon(env, opts);
  const DaemonReport report = daemon.run();

  ASSERT_EQ(report.epochs.size(), 4u);
  EXPECT_EQ(report.epochs[0].scan.pairs_total, 15u);
  EXPECT_EQ(report.epochs[0].plan.dropped_over_budget, 30u);
  EXPECT_EQ(report.epochs[1].scan.pairs_total, 15u);
  EXPECT_EQ(report.epochs[2].scan.pairs_total, 15u);
  EXPECT_TRUE(report.epochs[3].plan.pairs.empty());
  EXPECT_DOUBLE_EQ(report.epochs[2].coverage.coverage(), 1.0);
  EXPECT_TRUE(report.converged);
}

TEST(ScanDaemonTest, StopAndResumeIsByteIdentical) {
  const double churn = 0.1;
  const std::string ref_out = ::testing::TempDir() + "/daemon_ref.tingmx";
  const std::string cut_out = ::testing::TempDir() + "/daemon_cut.tingmx";

  // Reference: two epochs, uninterrupted.
  {
    scenario::TestbedDaemonEnvironment env(small_world(21, churn));
    ScanDaemon daemon(env, daemon_opts(ref_out, 2));
    const DaemonReport r = daemon.run();
    EXPECT_FALSE(r.interrupted);
  }

  // Interrupted run: raise the stop flag mid-epoch 0 via the progress hook.
  {
    scenario::TestbedDaemonEnvironment env(small_world(21, churn));
    std::atomic<bool> stop{false};
    DaemonOptions opts = daemon_opts(cut_out, 2);
    opts.stop = &stop;
    ScanDaemon daemon(env, opts);
    std::size_t results = 0;
    const DaemonReport r = daemon.run(
        {}, [&](std::size_t, std::size_t, const PairResult&) {
          if (++results == 8) stop.store(true);
        });
    EXPECT_TRUE(r.interrupted);
    ASSERT_EQ(r.epochs.size(), 1u);
    EXPECT_TRUE(r.epochs[0].scan.interrupted);
    EXPECT_GT(r.epochs[0].scan.interrupted_pairs, 0u);
  }

  // Resume in a fresh process (fresh environment object): the journal
  // replays epoch 0's completed pairs, the engine re-measures the rest,
  // and the final artifacts equal the uninterrupted run's byte for byte.
  {
    scenario::TestbedDaemonEnvironment env(small_world(21, churn));
    DaemonOptions opts = daemon_opts(cut_out, 2);
    opts.resume = true;
    ScanDaemon daemon(env, opts);
    const DaemonReport r = daemon.run();
    EXPECT_FALSE(r.interrupted);
    EXPECT_EQ(r.epochs_completed, 2u);
    EXPECT_GT(r.epochs.front().journal_recovered, 0u);
  }

  EXPECT_EQ(read_file(cut_out), read_file(ref_out));
  EXPECT_EQ(read_file(cut_out + ".halves"), read_file(ref_out + ".halves"));
}

TEST(ScanDaemonTest, ResumingAFinishedStoreIsANoOp) {
  scenario::TestbedDaemonEnvironment env(small_world(31, 0.05));
  const std::string out = ::testing::TempDir() + "/daemon_done.tingmx";
  {
    ScanDaemon daemon(env, daemon_opts(out, 2));
    EXPECT_TRUE(daemon.run().converged);
  }
  const std::string bytes = read_file(out);
  {
    scenario::TestbedDaemonEnvironment env2(small_world(31, 0.05));
    DaemonOptions opts = daemon_opts(out, 2);
    opts.resume = true;
    ScanDaemon daemon(env2, opts);
    const DaemonReport r = daemon.run();
    EXPECT_TRUE(r.epochs.empty());  // nothing left to run
    EXPECT_EQ(r.epochs_completed, 2u);
    EXPECT_TRUE(r.converged);
  }
  EXPECT_EQ(read_file(out), bytes);
}

TEST(ScanDaemonTest, ShardCountDoesNotChangeTheMatrix) {
  const std::string out1 = ::testing::TempDir() + "/daemon_s1.tingmx";
  const std::string out2 = ::testing::TempDir() + "/daemon_s2.tingmx";
  {
    scenario::TestbedDaemonEnvironment env(small_world(41, 0.1));
    ScanDaemon daemon(env, daemon_opts(out1, 2));
    EXPECT_FALSE(daemon.run().interrupted);
  }
  {
    scenario::DaemonWorldOptions wo = small_world(41, 0.1);
    wo.shards = 2;
    scenario::TestbedDaemonEnvironment env(wo);
    ScanDaemon daemon(env, daemon_opts(out2, 2));
    EXPECT_FALSE(daemon.run().interrupted);
  }
  EXPECT_EQ(read_file(out1), read_file(out2));
}

TEST(ScanDaemonTest, ResumeFromLoadedStoreIsByteIdentical) {
  // Interrupt a churning run after its first checkpoint, so the resumed
  // process plans from a store it loaded (relay ids in record order) rather
  // than one it built; its artifacts must still equal an uninterrupted
  // run's byte for byte.
  // A third of the relays start absent, so later epochs have joins (new
  // pairs) to measure.
  scenario::DaemonWorldOptions world = small_world(61, 0.1);
  world.churn.initially_absent = 0.3;
  const std::string ref_out = ::testing::TempDir() + "/daemon_load_ref.tingmx";
  const std::string cut_out = ::testing::TempDir() + "/daemon_load_cut.tingmx";
  {
    scenario::TestbedDaemonEnvironment env(world);
    ScanDaemon daemon(env, daemon_opts(ref_out, 4));
    EXPECT_FALSE(daemon.run().interrupted);
  }
  {
    scenario::TestbedDaemonEnvironment env(world);
    std::atomic<bool> stop{false};
    DaemonOptions opts = daemon_opts(cut_out, 4);
    opts.stop = &stop;
    ScanDaemon daemon(env, opts);
    bool checkpointed = false;
    const DaemonReport r = daemon.run(
        [&](const EpochStats&) { checkpointed = true; },
        [&](std::size_t, std::size_t, const PairResult&) {
          if (checkpointed) stop.store(true);
        });
    EXPECT_TRUE(r.interrupted);
    ASSERT_GE(r.epochs.size(), 2u);
    EXPECT_GT(r.epochs_completed, 0u);
  }
  {
    scenario::TestbedDaemonEnvironment env(world);
    DaemonOptions opts = daemon_opts(cut_out, 4);
    opts.resume = true;
    ScanDaemon daemon(env, opts);
    EXPECT_FALSE(daemon.run().interrupted);
  }
  EXPECT_EQ(read_file(cut_out), read_file(ref_out));
  EXPECT_EQ(read_file(cut_out + ".halves"), read_file(ref_out + ".halves"));
}

TEST(ScanDaemonTest, JournalOffStillResumesAtEpochGranularity) {
  // With the mid-epoch journal disabled the daemon still checkpoints the
  // store after every epoch, so a kill between epochs resumes losslessly —
  // an interrupted epoch just re-runs from its start.
  const double churn = 0.1;
  const std::string ref_out = ::testing::TempDir() + "/daemon_noj_ref.tingmx";
  const std::string cut_out = ::testing::TempDir() + "/daemon_noj_cut.tingmx";
  {
    scenario::TestbedDaemonEnvironment env(small_world(71, churn));
    DaemonOptions opts = daemon_opts(ref_out, 2);
    opts.journal = false;
    ScanDaemon daemon(env, opts);
    EXPECT_FALSE(daemon.run().interrupted);
  }
  {
    scenario::TestbedDaemonEnvironment env(small_world(71, churn));
    std::atomic<bool> stop{false};
    DaemonOptions opts = daemon_opts(cut_out, 2);
    opts.journal = false;
    opts.stop = &stop;
    ScanDaemon daemon(env, opts);
    std::size_t results = 0;
    const DaemonReport r = daemon.run(
        {}, [&](std::size_t, std::size_t, const PairResult&) {
          if (++results == 8) stop.store(true);
        });
    EXPECT_TRUE(r.interrupted);
    ASSERT_EQ(r.epochs.size(), 1u);
    EXPECT_EQ(r.epochs[0].journal_recovered, 0u);
  }
  {
    scenario::TestbedDaemonEnvironment env(small_world(71, churn));
    DaemonOptions opts = daemon_opts(cut_out, 2);
    opts.journal = false;
    opts.resume = true;
    ScanDaemon daemon(env, opts);
    const DaemonReport r = daemon.run();
    EXPECT_FALSE(r.interrupted);
    // No journal to replay — the whole epoch re-measures.
    EXPECT_EQ(r.epochs.front().journal_recovered, 0u);
  }
  EXPECT_EQ(read_file(cut_out), read_file(ref_out));
}

TEST(ScanDaemonTest, ReportsMatrixStoreFootprint) {
  scenario::TestbedDaemonEnvironment env(small_world(81, 0.0));
  const std::string out = ::testing::TempDir() + "/daemon_mem.tingmx";
  ScanDaemon daemon(env, daemon_opts(out, 2));
  const DaemonReport report = daemon.run();
  ASSERT_FALSE(report.epochs.empty());
  EXPECT_EQ(report.epochs.front().matrix_pairs, daemon.matrix().size());
  EXPECT_GT(report.epochs.front().matrix_bytes, 0u);
  EXPECT_EQ(report.matrix_pairs, daemon.matrix().size());
  EXPECT_EQ(report.matrix_bytes, daemon.matrix().memory_bytes());
}

TEST(ScanDaemonTest, ResumeGuardsAgainstForeignStores) {
  scenario::TestbedDaemonEnvironment env(small_world(51, 0.0));
  const std::string out = ::testing::TempDir() + "/daemon_guard.tingmx";
  {
    ScanDaemon daemon(env, daemon_opts(out, 1));
    daemon.run();
  }
  {
    // Different seed -> different epoch pair seeds; resuming would corrupt.
    DaemonOptions opts = daemon_opts(out, 2);
    opts.resume = true;
    opts.seed = 999;
    scenario::TestbedDaemonEnvironment env2(small_world(51, 0.0));
    ScanDaemon daemon(env2, opts);
    EXPECT_THROW(daemon.run(), CheckError);
  }
  {
    // Missing state file (fresh path) with --resume.
    DaemonOptions opts = daemon_opts(::testing::TempDir() + "/no_such.tingmx", 1);
    opts.resume = true;
    scenario::TestbedDaemonEnvironment env3(small_world(51, 0.0));
    ScanDaemon daemon(env3, opts);
    EXPECT_THROW(daemon.run(), CheckError);
  }
}

}  // namespace
}  // namespace ting::meas
