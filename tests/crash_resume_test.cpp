// Crash-safety tests: atomic artifact writes, the scan journal's exact-bit
// round-trip and torn-tail recovery, and the headline guarantee — a
// deterministic sharded scan killed mid-flight and resumed from its journal
// produces a matrix (and half-circuit cache) bit-identical to an
// uninterrupted run, for any shard count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>

#include "scenario/shard_world.h"
#include "ting/half_circuit_cache.h"
#include "ting/rtt_matrix.h"
#include "ting/scan_journal.h"
#include "ting/scheduler.h"
#include "util/assert.h"
#include "util/atomic_file.h"

namespace ting::meas {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "crash_resume_" + name;
}

dir::Fingerprint fp_of(int i) {
  char buf[41];
  std::snprintf(buf, sizeof(buf), "%040x", i);
  return dir::Fingerprint::from_hex(buf);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void append_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << bytes;
}

// ---- util/atomic_file -------------------------------------------------------

TEST(AtomicFileTest, WritesAndReplaces) {
  const std::string path = temp_path("atomic.txt");
  atomic_write_file(path, "first\n");
  EXPECT_EQ(read_file(path), "first\n");
  atomic_write_file(path, "second\n");
  EXPECT_EQ(read_file(path), "second\n");
  std::remove(path.c_str());
}

TEST(AtomicFileTest, ThrowsWhenDirectoryDoesNotExist) {
  EXPECT_THROW(
      atomic_write_file("/nonexistent-ting-dir/never/matrix.csv", "x"),
      CheckError);
}

TEST(AtomicFileTest, SaveCsvSurfacesWriteFailure) {
  // Both persistence paths go through atomic_write_file, so a failing
  // target directory raises instead of silently truncating the artifact.
  RttMatrix m;
  m.set(fp_of(1), fp_of(2), 10.0, TimePoint{}, 5);
  EXPECT_THROW(m.save_csv("/nonexistent-ting-dir/matrix.csv"), CheckError);
  HalfCircuitCache halves;
  halves.store(fp_of(1), fp_of(2), 5.0, TimePoint{}, 5);
  EXPECT_THROW(halves.save_bin("/nonexistent-ting-dir/matrix.csv.halves"),
               CheckError);
}

// ---- ScanJournal ------------------------------------------------------------

ScanJournal::Meta meta_of(std::uint64_t seed, std::size_t nodes) {
  ScanJournal::Meta m;
  m.pair_seed = seed;
  m.nodes = nodes;
  return m;
}

TEST(ScanJournalTest, RoundTripsRecordsWithExactBits) {
  const std::string path = temp_path("roundtrip.journal");
  // A value with a noisy mantissa: 6-significant-digit CSV printing would
  // not round-trip it, the journal's bit encoding must.
  const double exact = 123.4567890123456789;
  {
    ScanJournal j(path, ScanJournal::Mode::kFresh, meta_of(42, 8));
    ScanJournal::PairRecord ok;
    ok.a = fp_of(1);
    ok.b = fp_of(2);
    ok.ok = true;
    ok.attempts = 2;
    ok.rtt_ms = exact;
    ok.measured_at = TimePoint::from_ns(123456789);
    ok.samples = 7;
    j.record_pair(ok);

    ScanJournal::PairRecord bad;
    bad.a = fp_of(3);
    bad.b = fp_of(4);
    bad.ok = false;
    bad.attempts = 3;
    bad.error_class = ErrorClass::kPermanent;
    bad.error = "boom, with, commas\nand a newline";
    j.record_pair(bad);

    j.record_half(ScanJournal::HalfRecord{fp_of(9), fp_of(1), 0.25, TimePoint{}, 7});
    j.record_quarantine(
        ScanJournal::QuarantineRecord{fp_of(3), TimePoint::from_ns(10),
                                      TimePoint::from_ns(20), 3, false});
    EXPECT_GE(j.fsyncs(), 5u);  // J + 2 P + H + Q, one fsync each
  }

  ScanJournal j(path, ScanJournal::Mode::kResume, meta_of(42, 8));
  EXPECT_EQ(j.torn_bytes(), 0u);
  EXPECT_EQ(j.records_recovered(), 5u);  // incl. the J metadata line
  ASSERT_EQ(j.pairs().size(), 2u);
  EXPECT_EQ(j.ok_pairs(), 1u);

  const auto& ok = j.pairs().at({fp_of(1), fp_of(2)});
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.attempts, 2);
  EXPECT_EQ(ok.rtt_ms, exact);  // exact bit equality, not approximate
  EXPECT_EQ(ok.measured_at.ns(), 123456789);
  EXPECT_EQ(ok.samples, 7);

  const auto& bad = j.pairs().at({fp_of(3), fp_of(4)});
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.error_class, ErrorClass::kPermanent);
  // Sanitized on write: the message stays one CSV field.
  EXPECT_EQ(bad.error, "boom  with  commas and a newline");

  ASSERT_EQ(j.quarantine_records().size(), 1u);
  EXPECT_EQ(j.quarantine_records()[0].failures, 3);

  RttMatrix matrix;
  // A resumed daemon epoch restores into the halves loaded from the last
  // checkpoint; the journal's half was stored later and must replace the
  // loaded one, although both carry the zero stamp.
  HalfCircuitCache halves;
  halves.store(fp_of(9), fp_of(1), 9999.0, TimePoint{}, 7);
  j.restore(matrix, &halves);
  ASSERT_TRUE(matrix.rtt(fp_of(1), fp_of(2)).has_value());
  EXPECT_EQ(*matrix.rtt(fp_of(1), fp_of(2)), exact);
  EXPECT_FALSE(matrix.rtt(fp_of(3), fp_of(4)).has_value());  // failed pair
  EXPECT_EQ(halves.size(), 1u);
  EXPECT_EQ(halves.lookup(fp_of(9), fp_of(1))->rtt_ms, 0.25);

  j.remove_file();
  EXPECT_EQ(read_file(path), "");
}

TEST(ScanJournalTest, RecoversFromTornTrailingRecord) {
  const std::string path = temp_path("torn.journal");
  {
    ScanJournal j(path, ScanJournal::Mode::kFresh, meta_of(1, 4));
    for (int i = 0; i < 3; ++i) {
      ScanJournal::PairRecord r;
      r.a = fp_of(10 + i);
      r.b = fp_of(20 + i);
      r.ok = true;
      r.rtt_ms = i;
      j.record_pair(r);
    }
  }
  // The crash artifact: a record that never got its trailing newline.
  append_raw(path, "P,deadbeef,torn-to-shre");

  {
    ScanJournal j(path, ScanJournal::Mode::kResume, meta_of(1, 4));
    EXPECT_EQ(j.records_recovered(), 4u);
    EXPECT_EQ(j.pairs().size(), 3u);
    EXPECT_GT(j.torn_bytes(), 0u);
    // The torn bytes are gone from disk and appends continue cleanly.
    ScanJournal::PairRecord r;
    r.a = fp_of(30);
    r.b = fp_of(31);
    r.ok = true;
    r.rtt_ms = 9.5;
    j.record_pair(r);
  }
  ScanJournal j(path, ScanJournal::Mode::kResume, meta_of(1, 4));
  EXPECT_EQ(j.torn_bytes(), 0u);
  EXPECT_EQ(j.pairs().size(), 4u);
  std::remove(path.c_str());
}

TEST(ScanJournalTest, CorruptRecordInvalidatesEverythingAfterIt) {
  const std::string path = temp_path("corrupt.journal");
  {
    ScanJournal j(path, ScanJournal::Mode::kFresh, meta_of(1, 4));
    for (int i = 0; i < 3; ++i) {
      ScanJournal::PairRecord r;
      r.a = fp_of(10 + i);
      r.b = fp_of(20 + i);
      r.ok = true;
      r.rtt_ms = i;
      j.record_pair(r);
    }
  }
  // Flip one byte inside the second pair record: its checksum no longer
  // matches, so it and the (intact) record after it are both dropped — an
  // append-only log cannot trust anything past the first sign of damage.
  std::string bytes = read_file(path);
  std::size_t line = 0, pos = 0;
  for (; pos < bytes.size() && line < 2; ++pos)
    if (bytes[pos] == '\n') ++line;
  ASSERT_LT(pos + 10, bytes.size());
  bytes[pos + 10] = bytes[pos + 10] == 'x' ? 'y' : 'x';
  atomic_write_file(path, bytes);

  ScanJournal j(path, ScanJournal::Mode::kResume, meta_of(1, 4));
  EXPECT_EQ(j.records_recovered(), 2u);  // meta + first pair
  EXPECT_EQ(j.pairs().size(), 1u);
  EXPECT_GT(j.torn_bytes(), 0u);
  EXPECT_TRUE(j.pairs().contains({fp_of(10), fp_of(20)}));
  std::remove(path.c_str());
}

TEST(ScanJournalTest, ResumeAgainstDifferentScanThrows) {
  const std::string path = temp_path("mismatch.journal");
  { ScanJournal j(path, ScanJournal::Mode::kFresh, meta_of(42, 8)); }
  EXPECT_THROW(ScanJournal(path, ScanJournal::Mode::kResume, meta_of(43, 8)),
               CheckError);
  EXPECT_THROW(ScanJournal(path, ScanJournal::Mode::kResume, meta_of(42, 9)),
               CheckError);
  ScanJournal ok(path, ScanJournal::Mode::kResume, meta_of(42, 8));
  ok.remove_file();
}

TEST(ScanJournalTest, CheckpointsArtifactsAtCadence) {
  const std::string path = temp_path("ckpt.journal");
  const std::string matrix_path = temp_path("ckpt_matrix.csv");
  const std::string halves_path = temp_path("ckpt_matrix.csv.halves");
  ScanJournal j(path, ScanJournal::Mode::kFresh, meta_of(1, 4));
  j.enable_checkpoints(matrix_path, halves_path, 2);
  j.record_half({fp_of(1), fp_of(2), 0.1 + 0.2, TimePoint{}, 3});
  for (int i = 0; i < 5; ++i) {
    ScanJournal::PairRecord r;
    r.a = fp_of(10 + i);
    r.b = fp_of(20 + i);
    r.ok = true;
    r.rtt_ms = 10.0 + i;
    r.samples = 3;
    j.record_pair(r);
  }
  // 5 pair records / every-2 cadence = 2 checkpoints.
  EXPECT_EQ(j.checkpoints_written(), 2u);
  const RttMatrix snap = RttMatrix::load_csv(matrix_path);
  EXPECT_EQ(snap.size(), 4u);  // records 1..4 were on disk at checkpoint 2
  // The halves checkpoint is the exact-bits TINGHCX1 image.
  const HalfCircuitCache halves = HalfCircuitCache::load_bin(halves_path);
  ASSERT_EQ(halves.size(), 1u);
  EXPECT_EQ(halves.lookup(fp_of(1), fp_of(2))->rtt_ms, 0.1 + 0.2);
  j.checkpoint_now();
  EXPECT_EQ(j.checkpoints_written(), 3u);
  EXPECT_EQ(RttMatrix::load_csv(matrix_path).size(), 5u);
  j.remove_file();
  std::remove(matrix_path.c_str());
  std::remove(halves_path.c_str());
}

// ---- kill-and-resume bit-identity ------------------------------------------

scenario::ShardWorldOptions small_world(std::uint64_t seed) {
  scenario::ShardWorldOptions o;
  o.relays = 10;
  o.scan_nodes = 8;
  o.testbed.seed = seed;
  o.testbed.differential_fraction = 0;
  o.ting.samples = 10;
  return o;
}

void attach_journal_observer(HalfCircuitCache& halves, ScanJournal& journal) {
  halves.set_store_observer([&journal](const dir::Fingerprint& w,
                                       const dir::Fingerprint& relay,
                                       const HalfCircuitCache::Entry& e) {
    journal.record_half(
        ScanJournal::HalfRecord{w, relay, e.rtt_ms, e.measured_at, e.samples});
  });
}

/// Run the scenario for one shard count: reference uninterrupted run, then
/// a journaled run stopped mid-scan (the graceful-shutdown path a SIGKILL
/// test exercises end-to-end in CI), then a --resume-style run restored
/// from the journal. The resumed artifacts must equal the reference's bytes.
void kill_and_resume_bit_identity(std::size_t shards) {
  const scenario::ShardWorldOptions wo = small_world(41);
  const scenario::TopologyPtr topology = scenario::shard_topology(wo);
  const std::vector<dir::Fingerprint> nodes =
      scenario::shard_scan_nodes(wo, topology);
  ASSERT_EQ(nodes.size(), 8u);
  const std::string journal_path =
      temp_path("kill_w" + std::to_string(shards) + ".journal");

  // Every run gets fresh worlds, as a new `ting scan` process would.
  const auto scan = [&](RttMatrix& m, const ScanOptions& options,
                        const ScanProgress& progress = {}) {
    const auto worlds = scenario::make_shard_worlds(wo, topology, shards);
    ParallelScanner scanner(scenario::scan_worlds(worlds), m);
    return scanner.scan(nodes, options, progress);
  };
  ScanOptions so;
  so.deterministic = true;
  so.pair_seed = 7;

  // Reference: uninterrupted, no journal.
  std::string ref_csv, ref_halves;
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ScanOptions ref = so;
    ref.half_cache = &halves;
    const ScanReport r = scan(m, ref);
    ASSERT_EQ(r.measured, 28u);
    ref_csv = m.to_csv();
    ref_halves = halves.to_bin();
  }

  // Interrupted run: stop flag trips after ~half the pairs resolve.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> resolved{0};
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ScanJournal journal(journal_path, ScanJournal::Mode::kFresh,
                        meta_of(so.pair_seed, nodes.size()));
    attach_journal_observer(halves, journal);
    ScanOptions cut = so;
    cut.half_cache = &halves;
    cut.journal = &journal;
    cut.stop = &stop;
    const ScanReport r =
        scan(m, cut, [&](std::size_t, std::size_t, const PairResult&) {
          if (resolved.fetch_add(1) + 1 >= 14) stop.store(true);
        });
    ASSERT_TRUE(r.interrupted);
    ASSERT_GT(r.interrupted_pairs, 0u);
    ASSERT_LT(r.measured, 28u);
    ASSERT_GE(journal.ok_pairs(), 14u - shards);  // in-flight drain may add
    EXPECT_EQ(r.measured + r.from_cache + r.failed + r.deferred +
                  r.interrupted_pairs,
              r.pairs_total);
  }

  // Resume: restore matrix + halves from the journal (exact bits, no CSV
  // round-trip), then finish the scan. Artifacts must match the reference.
  {
    RttMatrix m;
    HalfCircuitCache halves;
    ScanJournal journal(journal_path, ScanJournal::Mode::kResume,
                        meta_of(so.pair_seed, nodes.size()));
    ASSERT_GT(journal.ok_pairs(), 0u);
    journal.restore(m, &halves);
    attach_journal_observer(halves, journal);
    ScanOptions fin = so;
    fin.half_cache = &halves;
    fin.journal = &journal;
    const ScanReport r = scan(m, fin);
    EXPECT_FALSE(r.interrupted);
    EXPECT_EQ(r.measured + r.from_cache, 28u);
    EXPECT_GE(r.from_cache, 1u);  // the journaled pairs were skipped
    EXPECT_EQ(m.to_csv(), ref_csv);
    EXPECT_EQ(halves.to_bin(), ref_halves);
    journal.remove_file();
  }
}

TEST(CrashResumeTest, KillAndResumeBitIdenticalSingleShard) {
  kill_and_resume_bit_identity(1);
}

TEST(CrashResumeTest, KillAndResumeBitIdenticalThreeShards) {
  kill_and_resume_bit_identity(3);
}

}  // namespace
}  // namespace ting::meas
