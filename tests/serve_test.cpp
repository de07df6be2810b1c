// Tests for the serving layer: snapshot fidelity against the matrix (in
// memory and reloaded from its binary store), detour-index correctness
// (full build, incremental update, and the counters the TIV statistics come
// from), PathServer query semantics, and the lock-free publish/read
// contract under concurrency (the TSan leg).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "serve/detour_index.h"
#include "serve/path_server.h"
#include "serve/snapshot.h"
#include "ting/rtt_matrix.h"
#include "util/rng.h"

namespace ting::serve {
namespace {

dir::Fingerprint fp_of(std::uint32_t i) {
  crypto::X25519Key k{};
  k[0] = static_cast<std::uint8_t>(i);
  k[1] = static_cast<std::uint8_t>(i >> 8);
  return dir::Fingerprint::of_identity(k);
}

/// A random symmetric matrix with enough spread that TIVs occur, and an
/// optional fraction of pairs left unmeasured.
struct World {
  std::vector<dir::Fingerprint> fps;
  meas::RttMatrix matrix;

  explicit World(std::size_t n, std::uint64_t seed = 7,
                 double missing_fraction = 0.0) {
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i)
      fps.push_back(fp_of(static_cast<std::uint32_t>(i)));
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) {
        if (rng.uniform(0.0, 1.0) < missing_fraction) continue;
        matrix.set(fps[i], fps[j], rng.uniform(20.0, 400.0));
      }
  }
};

// ---------------------------------------------------------------- snapshot

TEST(SnapshotTest, MirrorsDenseMatrix) {
  World w(15, 1);
  const MatrixSnapshot snap = MatrixSnapshot::build(w.matrix, 3);
  EXPECT_EQ(snap.node_count(), 15u);
  EXPECT_EQ(snap.epoch(), 3u);
  EXPECT_EQ(snap.pair_count(), w.matrix.size());
  EXPECT_DOUBLE_EQ(snap.coverage(), 1.0);
  for (std::size_t i = 0; i < w.fps.size(); ++i)
    for (std::size_t j = 0; j < w.fps.size(); ++j) {
      const auto truth = w.matrix.rtt(w.fps[i], w.fps[j]);
      const auto got = snap.rtt(w.fps[i], w.fps[j]);
      ASSERT_EQ(truth.has_value(), got.has_value());
      if (truth.has_value()) {
        EXPECT_DOUBLE_EQ(*truth, *got);
      }
    }
}

TEST(SnapshotTest, SparseAndDenseBuildsAgree) {
  // A partially converged matrix snapshots the same in memory and reloaded
  // from the daemon's binary store (what `ting query` reads).
  World w(12, 2, /*missing_fraction=*/0.3);
  const meas::RttMatrix stored = meas::RttMatrix::from_bin(w.matrix.to_bin());
  const MatrixSnapshot from_memory = MatrixSnapshot::build(w.matrix);
  const MatrixSnapshot from_store = MatrixSnapshot::build(stored);
  ASSERT_EQ(from_memory.node_count(), from_store.node_count());
  EXPECT_EQ(from_memory.pair_count(), from_store.pair_count());
  EXPECT_LT(from_memory.coverage(), 1.0);
  const std::size_t n = from_memory.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(from_memory.node(i), from_store.node(i));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(from_memory.has(i, j), from_store.has(i, j));
      if (from_memory.has(i, j)) {
        EXPECT_DOUBLE_EQ(from_memory.rtt_raw(i, j), from_store.rtt_raw(i, j));
      }
    }
  }
}

TEST(SnapshotTest, Float32StorageMatchesFloat64Queries) {
  World w(20, 14, /*missing_fraction=*/0.3);
  const MatrixSnapshot wide = MatrixSnapshot::build(w.matrix, 2);
  const MatrixSnapshot narrow = MatrixSnapshot::build(
      w.matrix, 2, TimePoint{}, SnapshotStorage::kFloat32);
  EXPECT_EQ(wide.storage(), SnapshotStorage::kFloat64);
  EXPECT_EQ(narrow.storage(), SnapshotStorage::kFloat32);
  ASSERT_EQ(narrow.node_count(), wide.node_count());
  EXPECT_EQ(narrow.pair_count(), wide.pair_count());
  EXPECT_DOUBLE_EQ(narrow.coverage(), wide.coverage());
  const std::size_t n = wide.node_count();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      // Presence (NaN coding) survives the narrowing exactly; values agree
      // to float32 rounding — ≤6e-8 relative, far below measurement noise.
      ASSERT_EQ(narrow.has(i, j), wide.has(i, j));
      if (!wide.has(i, j)) continue;
      const double a = wide.rtt_raw(i, j), b = narrow.rtt_raw(i, j);
      EXPECT_NEAR(b, a, std::abs(a) * 1e-6);
    }
  // Path sums stay within the same tolerance.
  for (std::size_t a = 0; a + 2 < n; ++a) {
    const std::vector<std::size_t> path{a, a + 1, a + 2};
    const auto pw = wide.path_rtt_ms(path);
    const auto pn = narrow.path_rtt_ms(path);
    ASSERT_EQ(pw.has_value(), pn.has_value());
    if (pw.has_value()) {
      EXPECT_NEAR(*pn, *pw, std::abs(*pw) * 1e-6);
    }
  }
}

TEST(SnapshotTest, Float32StorageHalvesTheArray) {
  World w(64, 15);
  const MatrixSnapshot wide = MatrixSnapshot::build(w.matrix);
  const MatrixSnapshot narrow = MatrixSnapshot::build(
      w.matrix, 0, TimePoint{}, SnapshotStorage::kFloat32);
  // The n×n array dominates the footprint; the fingerprint index is shared
  // overhead, so the ratio lands between 0.5 and ~0.75.
  EXPECT_LT(narrow.memory_bytes(), wide.memory_bytes() * 3 / 4);
  EXPECT_GE(narrow.memory_bytes(), wide.memory_bytes() / 2);
}

TEST(PathServerTest, Float32PublishServesParityQueries) {
  World w(16, 17, /*missing_fraction=*/0.2);
  ServeOptions so;
  so.float32_snapshot = true;
  PathServer narrow(so), wide;
  narrow.publish(w.matrix);
  wide.publish(w.matrix);
  ASSERT_TRUE(narrow.ready());
  EXPECT_EQ(narrow.state()->snapshot.storage(), SnapshotStorage::kFloat32);
  EXPECT_EQ(wide.state()->snapshot.storage(), SnapshotStorage::kFloat64);
  for (std::size_t i = 0; i < w.fps.size(); ++i)
    for (std::size_t j = i + 1; j < w.fps.size(); ++j) {
      const auto a = wide.rtt(w.fps[i], w.fps[j]);
      const auto b = narrow.rtt(w.fps[i], w.fps[j]);
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        EXPECT_NEAR(*b, *a, std::abs(*a) * 1e-6);
      }
    }
  const auto cw = wide.fastest_through(w.fps[5], 4);
  const auto cn = narrow.fastest_through(w.fps[5], 4);
  ASSERT_EQ(cw.size(), cn.size());
  for (std::size_t k = 0; k < cw.size(); ++k) {
    EXPECT_EQ(cw[k].relays, cn[k].relays);
    EXPECT_NEAR(cn[k].rtt_ms, cw[k].rtt_ms, cw[k].rtt_ms * 1e-6);
  }
}

TEST(SnapshotTest, PathRttHandlesMissingHops) {
  World w(10, 3, /*missing_fraction=*/0.5);
  const MatrixSnapshot snap = MatrixSnapshot::build(w.matrix);
  std::size_t complete = 0, incomplete = 0;
  for (std::size_t a = 0; a < 8; ++a) {
    const std::vector<std::size_t> path{a, a + 1, a + 2};
    const auto rtt = snap.path_rtt_ms(path);
    const bool both = snap.has(a, a + 1) && snap.has(a + 1, a + 2);
    ASSERT_EQ(rtt.has_value(), both);
    if (rtt.has_value()) {
      EXPECT_DOUBLE_EQ(*rtt,
                       snap.rtt_raw(a, a + 1) + snap.rtt_raw(a + 1, a + 2));
      ++complete;
    } else {
      ++incomplete;
    }
  }
  // At 50% missing both kinds should show up.
  EXPECT_GT(complete + incomplete, 0u);
}

TEST(SnapshotTest, UnknownRelayAndDiagonal) {
  World w(6, 4);
  const MatrixSnapshot snap = MatrixSnapshot::build(w.matrix);
  EXPECT_FALSE(snap.index_of(fp_of(999)).has_value());
  EXPECT_FALSE(snap.rtt(fp_of(999), w.fps[0]).has_value());
  for (std::size_t i = 0; i < snap.node_count(); ++i)
    EXPECT_FALSE(snap.rtt(i, i).has_value());
}

/// A snapshot filled by the store's entry walk holds exactly what probing
/// every node pair of the store would: the same bits (narrowed in float32),
/// NaN holes and diagonal, pair count and node list.
void expect_snapshot_matches_probe(const meas::RttMatrix& m,
                                   SnapshotStorage storage) {
  const MatrixSnapshot snap = MatrixSnapshot::build(m, 0, TimePoint{}, storage);
  const std::vector<dir::Fingerprint> nodes = m.nodes();
  ASSERT_EQ(snap.nodes(), nodes);
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      const double got = snap.rtt_raw(i, j);
      const auto want = i == j ? std::nullopt : m.rtt(nodes[i], nodes[j]);
      if (!want.has_value()) {
        ASSERT_TRUE(std::isnan(got)) << "(" << i << "," << j << ")";
        continue;
      }
      const double stored = storage == SnapshotStorage::kFloat32
                                ? static_cast<double>(static_cast<float>(*want))
                                : *want;
      ASSERT_EQ(std::memcmp(&got, &stored, sizeof(double)), 0)
          << "(" << i << "," << j << "): " << got << " vs " << stored;
      if (i < j) ++pairs;
    }
  EXPECT_EQ(snap.pair_count(), pairs);
}

TEST(SnapshotTest, EntryWalkMatchesPairProbe) {
  World w(40, 21, /*missing_fraction=*/0.3);
  // erase_relay keeps the relay's id, now with no entries.
  meas::RttMatrix erased = w.matrix;
  ASSERT_GT(erased.erase_relay(w.fps[7]), 0u);
  // from_bin assigns ids in record order, not the insertion order above.
  const meas::RttMatrix reloaded = meas::RttMatrix::from_bin(erased.to_bin());
  // merge interns the other store's relays into this one's table.
  World other(48, 22, /*missing_fraction=*/0.5);
  meas::RttMatrix merged = w.matrix;
  merged.merge(other.matrix);
  const meas::RttMatrix* const stores[] = {&w.matrix, &erased, &reloaded,
                                           &merged};
  for (const meas::RttMatrix* m : stores)
    for (const SnapshotStorage storage :
         {SnapshotStorage::kFloat64, SnapshotStorage::kFloat32})
      expect_snapshot_matches_probe(*m, storage);
  EXPECT_FALSE(MatrixSnapshot::build(erased).index_of(w.fps[7]).has_value());
  EXPECT_EQ(MatrixSnapshot::build(merged).node_count(), 48u);
}

// ------------------------------------------------------------ detour index

/// Brute-force reference for one pair.
struct BruteDetour {
  std::int32_t via = DetourIndex::kNone;
  double detour_ms = std::numeric_limits<double>::infinity();
  bool tiv = false;
};
BruteDetour brute_detour(const MatrixSnapshot& snap, std::size_t i,
                         std::size_t j) {
  BruteDetour out;
  for (std::size_t k = 0; k < snap.node_count(); ++k) {
    if (k == i || k == j) continue;
    if (!snap.has(i, k) || !snap.has(k, j)) continue;
    const double sum = snap.rtt_raw(i, k) + snap.rtt_raw(k, j);
    if (sum < out.detour_ms) {
      out.detour_ms = sum;
      out.via = static_cast<std::int32_t>(k);
    }
  }
  out.tiv = out.via != DetourIndex::kNone && snap.has(i, j) &&
            out.detour_ms < snap.rtt_raw(i, j);
  return out;
}

/// Every pair of `index` equals the brute-force reference exactly: the same
/// via, the same detour_ms bits, the same flags, and counters that agree.
void expect_index_matches_brute(const MatrixSnapshot& snap,
                                const DetourIndex& index) {
  std::size_t measured = 0, tivs = 0;
  for (std::size_t i = 0; i < snap.node_count(); ++i)
    for (std::size_t j = i + 1; j < snap.node_count(); ++j) {
      const BruteDetour want = brute_detour(snap, i, j);
      const DetourIndex::Detour& got = index.at(i, j);
      ASSERT_EQ(got.via, want.via) << "pair (" << i << "," << j << ")";
      ASSERT_EQ(std::memcmp(&got.detour_ms, &want.detour_ms, sizeof(double)),
                0)
          << "pair (" << i << "," << j << "): " << got.detour_ms << " vs "
          << want.detour_ms;
      ASSERT_EQ(got.tiv, want.tiv) << "pair (" << i << "," << j << ")";
      ASSERT_EQ(got.measured, snap.has(i, j)) << "pair (" << i << "," << j
                                              << ")";
      if (snap.has(i, j)) ++measured;
      if (want.tiv) ++tivs;
    }
  EXPECT_EQ(index.measured_pairs(), measured);
  EXPECT_EQ(index.tiv_pairs(), tivs);
}

TEST(DetourIndexTest, FullBuildMatchesBruteForce) {
  World w(18, 5);
  const MatrixSnapshot snap = MatrixSnapshot::build(w.matrix);
  expect_index_matches_brute(snap, DetourIndex::build(snap));
}

TEST(DetourIndexTest, FullBuildMatchesBruteForceSparse) {
  World w(18, 6, /*missing_fraction=*/0.4);
  const MatrixSnapshot snap = MatrixSnapshot::build(w.matrix);
  const DetourIndex index = DetourIndex::build(snap);
  expect_index_matches_brute(snap, index);
  EXPECT_LT(index.measured_pairs(), 18u * 17 / 2);
}

TEST(DetourIndexTest, Float32SnapshotYieldsSameDetourStructure) {
  // The detour index built over a float32 image must find the same via
  // relays and the same TIV set — rounding at 1e-8 relative cannot flip a
  // comparison unless two detour sums were equal to within noise anyway.
  World w(18, 16, /*missing_fraction=*/0.2);
  const MatrixSnapshot narrow = MatrixSnapshot::build(
      w.matrix, 0, TimePoint{}, SnapshotStorage::kFloat32);
  expect_index_matches_brute(narrow, DetourIndex::build(narrow));
}

TEST(DetourIndexTest, IncrementalUpdateEqualsRebuild) {
  World w(16, 7, /*missing_fraction=*/0.1);
  const MatrixSnapshot before = MatrixSnapshot::build(w.matrix);
  DetourIndex index = DetourIndex::build(before);

  // Change a handful of entries, daemon-style: the changed-relay set is
  // every endpoint of every changed entry (an entry (a, b) can serve as a
  // leg of any pair incident to a or b — see the soundness argument in
  // detour_index.h).
  Rng rng(99);
  const std::vector<std::pair<std::size_t, std::size_t>> edits{
      {2, 9}, {2, 5}, {9, 14}, {3, 7}};
  std::vector<std::size_t> changed;
  for (const auto& [a, b] : edits) {
    w.matrix.set(w.fps[a], w.fps[b], rng.uniform(20.0, 400.0));
    changed.push_back(a);
    changed.push_back(b);
  }

  const MatrixSnapshot after = MatrixSnapshot::build(w.matrix);
  // Map to snapshot (sorted-fingerprint) indices before updating.
  std::vector<std::size_t> changed_indices;
  for (std::size_t f : changed)
    changed_indices.push_back(*after.index_of(w.fps[f]));
  index.update(after, changed_indices);
  expect_index_matches_brute(after, index);

  const DetourIndex rebuilt = DetourIndex::build(after);
  EXPECT_EQ(index.measured_pairs(), rebuilt.measured_pairs());
  EXPECT_EQ(index.tiv_pairs(), rebuilt.tiv_pairs());
}

/// RTTs that stress the kernel's exactness: small integers, so equal detour
/// sums straddle chunk, lane and tile boundaries, plus some negatives and
/// ±0.0, whose equal sums differ in the sign of zero.
double tie_heavy_rtt(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.1) return u < 0.05 ? 0.0 : -0.0;
  if (u < 0.15) return -static_cast<double>(1 + rng.next_below(3));
  return static_cast<double>(rng.next_below(8));
}

/// n relays with a `missing_fraction` of pairs unmeasured. The chain
/// (i, i+1) is always measured, so every relay is in the snapshot.
meas::RttMatrix tie_heavy_matrix(std::size_t n, double missing_fraction,
                                 Rng& rng) {
  meas::RttMatrix m;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (j == i + 1 || rng.uniform() >= missing_fraction)
        m.set(fp_of(static_cast<std::uint32_t>(i)),
              fp_of(static_cast<std::uint32_t>(j)), tie_heavy_rtt(rng));
  return m;
}

TEST(DetourIndexTest, KernelMatchesBruteForceAcrossShapes) {
  // Sizes around the kernel's 64-wide chunks, 2-wide lanes and 2×4 tiles,
  // so every remainder path runs; both storages; full build, then update()
  // after random edits.
  for (const std::size_t n : {2, 3, 4, 5, 7, 63, 64, 65, 66, 129, 200})
    for (const double missing : {0.0, 0.3, 0.95})
      for (const SnapshotStorage storage :
           {SnapshotStorage::kFloat64, SnapshotStorage::kFloat32}) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " missing=" << missing << " float32="
                     << (storage == SnapshotStorage::kFloat32));
        Rng rng(n * 1000 + static_cast<std::uint64_t>(missing * 100));
        meas::RttMatrix m = tie_heavy_matrix(n, missing, rng);
        const MatrixSnapshot before =
            MatrixSnapshot::build(m, 0, TimePoint{}, storage);
        ASSERT_EQ(before.node_count(), n);
        DetourIndex index = DetourIndex::build(before);
        expect_index_matches_brute(before, index);

        // Edit a few entries between snapshot relays (set or overwrite), so
        // the node set stays and update() applies.
        std::vector<std::size_t> changed;
        for (std::size_t e = 0; e < 1 + n / 16; ++e) {
          const std::size_t a = rng.next_below(n);
          std::size_t b = a;
          while (b == a) b = rng.next_below(n);
          m.set(before.node(a), before.node(b), tie_heavy_rtt(rng));
          changed.push_back(a);
          changed.push_back(b);
        }
        const MatrixSnapshot after =
            MatrixSnapshot::build(m, 0, TimePoint{}, storage);
        ASSERT_EQ(after.nodes(), before.nodes());
        index.update(after, changed);
        expect_index_matches_brute(after, index);
      }
}

// ------------------------------------------------------------- path server

TEST(PathServerTest, NotReadyBeforeFirstPublish) {
  PathServer server;
  EXPECT_FALSE(server.ready());
  EXPECT_FALSE(server.rtt(fp_of(0), fp_of(1)).has_value());
  EXPECT_TRUE(server.fastest_through(fp_of(0), 3).empty());
  EXPECT_DOUBLE_EQ(server.options_in_band(3, 0, 1e9), 0.0);
}

TEST(PathServerTest, FastestThroughMatchesExhaustive) {
  World w(14, 8);
  PathServer server;
  server.publish(w.matrix);
  const auto st = server.state();
  const auto circuits = server.fastest_through(w.fps[4], 5);
  ASSERT_EQ(circuits.size(), 5u);

  // Exhaustive reference: every unordered pair (a, b) around r, in the
  // snapshot's (sorted-fingerprint) index space.
  const std::size_t r = *st->snapshot.index_of(w.fps[4]);
  std::vector<double> sums;
  for (std::size_t a = 0; a < w.fps.size(); ++a)
    for (std::size_t b = a + 1; b < w.fps.size(); ++b) {
      if (a == r || b == r) continue;
      if (!st->snapshot.has(a, r) || !st->snapshot.has(r, b)) continue;
      sums.push_back(st->snapshot.rtt_raw(a, r) + st->snapshot.rtt_raw(r, b));
    }
  std::sort(sums.begin(), sums.end());
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    EXPECT_DOUBLE_EQ(circuits[i].rtt_ms, sums[i]);
    ASSERT_EQ(circuits[i].relays.size(), 3u);
    EXPECT_EQ(circuits[i].relays[1], w.fps[4]);  // middle hop fixed
  }
}

TEST(PathServerTest, BandQueriesComeFromTheBandSorted) {
  World w(20, 9);
  PathServer server;
  server.publish(w.matrix);
  const auto circuits = server.circuits_in_band(3, 200, 400, 10);
  ASSERT_FALSE(circuits.empty());
  double prev = 0;
  for (const auto& c : circuits) {
    EXPECT_GE(c.rtt_ms, 200.0);
    EXPECT_LE(c.rtt_ms, 400.0);
    EXPECT_GE(c.rtt_ms, prev);  // RTT-ascending
    prev = c.rtt_ms;
    ASSERT_EQ(c.relays.size(), 3u);
    EXPECT_NE(c.relays[0], c.relays[1]);
    EXPECT_NE(c.relays[1], c.relays[2]);
    EXPECT_NE(c.relays[0], c.relays[2]);
  }
  EXPECT_GT(server.options_in_band(3, 200, 400), 0.0);
  // A wider band can only hold more of the population.
  EXPECT_GE(server.options_in_band(3, 0, 1e9),
            server.options_in_band(3, 200, 400));
}

TEST(PathServerTest, IncrementalPublishEqualsFullRebuild) {
  World w(15, 10);
  PathServer incremental, fresh;
  incremental.publish(w.matrix);

  // A few changed entries; the changed set is their endpoints (what the
  // daemon hook passes via the epoch delta's node list).
  Rng rng(11);
  w.matrix.set(w.fps[6], w.fps[2], rng.uniform(20.0, 400.0));
  w.matrix.set(w.fps[6], w.fps[11], rng.uniform(20.0, 400.0));
  w.matrix.set(w.fps[4], w.fps[9], rng.uniform(20.0, 400.0));
  const MatrixSnapshot snap = MatrixSnapshot::build(w.matrix, 1);
  incremental.publish(
      snap, {w.fps[6], w.fps[2], w.fps[11], w.fps[4], w.fps[9]});
  fresh.publish(w.matrix);

  const auto a = incremental.state();
  const auto b = fresh.state();
  EXPECT_EQ(incremental.publishes(), 2u);
  for (std::size_t i = 0; i < w.fps.size(); ++i)
    for (std::size_t j = i + 1; j < w.fps.size(); ++j) {
      const auto& di = a->detours.at(i, j);
      const auto& df = b->detours.at(i, j);
      ASSERT_EQ(di.via, df.via) << "pair (" << i << "," << j << ")";
      EXPECT_DOUBLE_EQ(di.detour_ms, df.detour_ms);
      EXPECT_EQ(di.tiv, df.tiv);
    }
  EXPECT_EQ(a->detours.tiv_pairs(), b->detours.tiv_pairs());
}

TEST(PathServerTest, ServesUnmeasuredPairsByDetour) {
  // The ShorTor-style answer: the pair itself is unmeasured but a via relay
  // with both legs measured still yields an estimate.
  meas::RttMatrix m;
  const auto a = fp_of(1), b = fp_of(2), r = fp_of(3);
  m.set(a, r, 30.0);
  m.set(r, b, 40.0);
  PathServer server;
  server.publish(m);
  EXPECT_FALSE(server.rtt(a, b).has_value());
  const auto route = server.best_detour(a, b);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->via, r);
  EXPECT_DOUBLE_EQ(route->detour_ms, 70.0);
  EXPECT_FALSE(route->direct_ms.has_value());
  EXPECT_FALSE(route->tiv);  // no measured direct path to beat
}

// ------------------------------------------------- concurrency (TSan leg)

TEST(PathServerTest, ConcurrentReadersAcrossPublishes) {
  // Readers hammer queries while the writer publishes fresh snapshots; the
  // contract under test is the atomic swap: every query runs against one
  // complete state, never a torn or half-updated one. TSan validates the
  // absence of data races; the asserts validate self-consistency.
  const std::size_t n = 12;
  World w(n, 12);
  PathServer server;
  server.publish(w.matrix);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> queries{0};
  auto reader = [&](std::uint64_t seed) {
    Rng rng(seed);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto st = server.state();
      ASSERT_NE(st, nullptr);
      const std::size_t i = rng.next_below(n), j = rng.next_below(n);
      if (i != j) {
        // Snapshot and index were built together: a detour's legs must
        // exist in the same state's snapshot.
        const auto& d = st->detours.at(i, j);
        if (d.via != DetourIndex::kNone) {
          const auto k = static_cast<std::size_t>(d.via);
          ASSERT_TRUE(st->snapshot.has(i, k));
          ASSERT_TRUE(st->snapshot.has(k, j));
          ASSERT_DOUBLE_EQ(d.detour_ms, st->snapshot.rtt_raw(i, k) +
                                            st->snapshot.rtt_raw(k, j));
        }
      }
      const auto circuits =
          server.fastest_through(w.fps[rng.next_below(n)], 3);
      for (const auto& c : circuits) ASSERT_TRUE(std::isfinite(c.rtt_ms));
      queries.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread r1(reader, 100), r2(reader, 200);

  // Writer: 8 epochs of point changes, alternating incremental patches
  // (changed = the edited entries' endpoints) and full rebuilds.
  Rng rng(13);
  for (std::uint64_t epoch = 1; epoch <= 8; ++epoch) {
    const std::size_t a = rng.next_below(n);
    std::size_t b = rng.next_below(n);
    if (b == a) b = (b + 1) % n;
    w.matrix.set(w.fps[a], w.fps[b], rng.uniform(20.0, 400.0));
    if (epoch % 2 == 0)
      server.publish(MatrixSnapshot::build(w.matrix, epoch));  // full rebuild
    else
      server.publish(MatrixSnapshot::build(w.matrix, epoch),
                     {w.fps[a], w.fps[b]});  // incremental patch
  }
  stop.store(true, std::memory_order_relaxed);
  r1.join();
  r2.join();
  EXPECT_EQ(server.publishes(), 9u);
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(server.state()->snapshot.epoch(), 8u);
}

}  // namespace
}  // namespace ting::serve
