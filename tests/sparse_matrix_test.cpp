// Property tests for the RttMatrix store: exact binary round-trips
// (including adversarial double bit patterns), byte-determinism of
// serialization, commutative/associative merge, TTL-expiry enumeration, the
// CSV schema in canonical pair order, and the format-sniffing load(). The
// suite keeps its historical name so its test ids stay stable.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ting/rtt_matrix.h"
#include "util/assert.h"
#include "util/rng.h"

namespace ting::meas {
namespace {

dir::Fingerprint fp(std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%040zx", i);
  return dir::Fingerprint::from_hex(buf);
}

TimePoint at(std::int64_t s) { return TimePoint::from_ns(s * 1'000'000'000); }

/// A matrix's entries keyed by canonical pair in an ordered map: the
/// reference its serialization and aggregates are checked against.
using Reference =
    std::map<std::pair<dir::Fingerprint, dir::Fingerprint>, RttMatrix::Entry>;

/// A randomly filled matrix over `n` relays with ~half the pairs present;
/// `ref`, if given, receives the same entries.
RttMatrix random_matrix(std::uint64_t seed, std::size_t n,
                        Reference* ref = nullptr) {
  Rng rng(seed);
  RttMatrix m;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.uniform() < 0.5) continue;
      m.set(fp(i), fp(j), rng.uniform() * 300.0,
            at(static_cast<std::int64_t>(rng.uniform_int(1, 1000000))),
            static_cast<int>(rng.uniform_int(1, 50)));
      if (ref != nullptr) (*ref)[{fp(i), fp(j)}] = *m.entry(fp(i), fp(j));
    }
  }
  return m;
}

bool same_entries(const RttMatrix& a, const RttMatrix& b) {
  return a.to_bin() == b.to_bin();
}

TEST(SparseRttMatrixTest, SetLookupAndCanonicalPairOrder) {
  RttMatrix m;
  m.set(fp(2), fp(1), 12.5, at(10), 3);
  EXPECT_EQ(m.size(), 1u);
  // The pair is unordered: both orientations see the same entry.
  ASSERT_TRUE(m.rtt(fp(1), fp(2)).has_value());
  EXPECT_DOUBLE_EQ(*m.rtt(fp(1), fp(2)), 12.5);
  EXPECT_DOUBLE_EQ(*m.rtt(fp(2), fp(1)), 12.5);
  EXPECT_TRUE(m.contains(fp(2), fp(1)));
  EXPECT_FALSE(m.contains(fp(1), fp(3)));
  const RttMatrix::Entry* e = m.entry(fp(1), fp(2));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->measured_at, at(10));
  EXPECT_EQ(e->samples, 3);
  // set() overwrites unconditionally; merge() arbitrates by freshness.
  m.set(fp(1), fp(2), 9.0, at(5), 1);
  EXPECT_DOUBLE_EQ(*m.rtt(fp(1), fp(2)), 9.0);
  EXPECT_EQ(m.size(), 1u);
}

TEST(SparseRttMatrixTest, BinRoundTripIsExact) {
  const RttMatrix m = random_matrix(17, 12);
  ASSERT_GT(m.size(), 0u);
  const std::string bin = m.to_bin();
  EXPECT_EQ(bin.size(), 16 + m.size() * RttMatrix::kBinRecordSize);
  const RttMatrix back = RttMatrix::from_bin(bin);
  EXPECT_EQ(back.size(), m.size());
  // Equal data serializes to equal bytes (sorted record order).
  EXPECT_EQ(back.to_bin(), bin);
}

TEST(SparseRttMatrixTest, BinRoundTripsAdversarialDoubles) {
  // CSV's 6-significant-digit printing would destroy all of these; the
  // binary format must carry the exact bit patterns.
  const double values[] = {
      0.1 + 0.2,                                    // classic 0.30000000000000004
      1.0 / 3.0,
      std::nextafter(25.0, 26.0),                   // one ulp off a round value
      1e-300,                                       // subnormal-adjacent
      123456.789012345,
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
  };
  RttMatrix m;
  std::size_t i = 0;
  for (const double v : values) m.set(fp(0), fp(++i), v, at(1), 1);
  const RttMatrix back = RttMatrix::from_bin(m.to_bin());
  i = 0;
  for (const double v : values) {
    const RttMatrix::Entry* e = back.entry(fp(0), fp(++i));
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e->rtt_ms),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(SparseRttMatrixTest, BinRejectsCorruptInput) {
  const RttMatrix m = random_matrix(3, 6);
  std::string bin = m.to_bin();
  EXPECT_THROW(RttMatrix::from_bin(bin.substr(0, bin.size() - 1)),
               CheckError);
  std::string bad_magic = bin;
  bad_magic[0] = 'X';
  EXPECT_THROW(RttMatrix::from_bin(bad_magic), CheckError);
  EXPECT_THROW(RttMatrix::from_bin("short"), CheckError);
  // A hostile record count whose byte size wraps 64 bits: 16 + 2^62 * 60
  // is 16 mod 2^64, so a multiplying size check would accept this header.
  std::string huge(RttMatrix::kBinMagic, 8);
  for (int i = 0; i < 8; ++i)
    huge.push_back(static_cast<char>(i == 7 ? 0x40 : 0));
  EXPECT_THROW(RttMatrix::from_bin(huge), CheckError);
  // A record whose RTT is NaN or ±infinity (bytes 40..47 of the record).
  const auto with_rtt = [&bin](std::size_t record, double rtt) {
    std::string out = bin;
    const auto bits = std::bit_cast<std::uint64_t>(rtt);
    for (std::size_t i = 0; i < 8; ++i)
      out[16 + record * RttMatrix::kBinRecordSize + 40 + i] =
          static_cast<char>((bits >> (8 * i)) & 0xff);
    return out;
  };
  ASSERT_GE(m.size(), 2u);
  for (const double rtt : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(RttMatrix::from_bin(with_rtt(1, rtt)), CheckError) << rtt;
  }
  try {
    RttMatrix::from_bin(with_rtt(1, std::nan("")));
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("record 1"), std::string::npos)
        << e.what();
  }
  // A negative estimate is legal: R_Cxy - R_Cx/2 - R_Cy/2 can dip below 0.
  EXPECT_EQ(RttMatrix::from_bin(with_rtt(1, -0.5)).size(), m.size());
}

TEST(SparseRttMatrixTest, MergeIsCommutativeAndAssociative) {
  // Overlapping pair sets with conflicting entries: merge order must not
  // matter (freshest-wins with a total-order tiebreak).
  const RttMatrix a = random_matrix(101, 10);
  const RttMatrix b = random_matrix(202, 10);
  const RttMatrix c = random_matrix(303, 10);

  RttMatrix ab = a;
  ab.merge(b);
  RttMatrix ba = b;
  ba.merge(a);
  EXPECT_TRUE(same_entries(ab, ba));

  RttMatrix ab_c = ab;
  ab_c.merge(c);
  RttMatrix bc = b;
  bc.merge(c);
  RttMatrix a_bc = a;
  a_bc.merge(bc);
  EXPECT_TRUE(same_entries(ab_c, a_bc));
}

TEST(SparseRttMatrixTest, MergeTiebreaksEqualTimestamps) {
  // Same pair, same timestamp, different values: the winner must be the
  // same regardless of merge direction (rtt bit pattern breaks the tie).
  RttMatrix x, y;
  x.set(fp(1), fp(2), 10.0, at(5), 1);
  y.set(fp(1), fp(2), 20.0, at(5), 1);
  RttMatrix xy = x;
  xy.merge(y);
  RttMatrix yx = y;
  yx.merge(x);
  EXPECT_EQ(xy.to_bin(), yx.to_bin());
  EXPECT_DOUBLE_EQ(*xy.rtt(fp(1), fp(2)), 20.0);  // larger bits win
}

TEST(SparseRttMatrixTest, MergePrefersFresher) {
  RttMatrix old_m, new_m;
  old_m.set(fp(1), fp(2), 50.0, at(5), 9);
  new_m.set(fp(1), fp(2), 60.0, at(6), 1);
  old_m.merge(new_m);
  EXPECT_DOUBLE_EQ(*old_m.rtt(fp(1), fp(2)), 60.0);
}

TEST(SparseRttMatrixTest, AbsorbRestampsDenseResults) {
  RttMatrix results;
  results.set(fp(1), fp(2), 30.0, TimePoint{}, 5);  // deterministic scans stamp 0
  results.set(fp(2), fp(3), 40.0, TimePoint{}, 6);
  RttMatrix m;
  m.set(fp(0), fp(1), 10.0, at(1), 1);
  m.absorb(results, at(100));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.entry(fp(1), fp(2))->measured_at, at(100));
  EXPECT_EQ(m.entry(fp(2), fp(3))->measured_at, at(100));
  EXPECT_EQ(m.entry(fp(0), fp(1))->measured_at, at(1));  // untouched
  // Only the stamp changes: estimates and sample counts carry over.
  EXPECT_DOUBLE_EQ(*m.rtt(fp(1), fp(2)), 30.0);
  EXPECT_EQ(m.entry(fp(2), fp(3))->samples, 6);
}

TEST(SparseRttMatrixTest, ExpiredPairsOldestFirst) {
  RttMatrix m;
  m.set(fp(1), fp(2), 1.0, at(10), 1);
  m.set(fp(3), fp(4), 2.0, at(30), 1);
  m.set(fp(5), fp(6), 3.0, at(20), 1);
  m.set(fp(7), fp(8), 4.0, at(95), 1);  // fresh at now=100, ttl=10
  const auto expired = m.expired_pairs(at(100), Duration::seconds(10));
  ASSERT_EQ(expired.size(), 3u);
  EXPECT_EQ(expired[0].measured_at, at(10));
  EXPECT_EQ(expired[1].measured_at, at(20));
  EXPECT_EQ(expired[2].measured_at, at(30));
  EXPECT_EQ(expired[0].a, fp(1));
  EXPECT_EQ(expired[0].b, fp(2));
}

TEST(SparseRttMatrixTest, CoverageCensus) {
  RttMatrix m;
  m.set(fp(0), fp(1), 1.0, at(95), 1);  // fresh
  m.set(fp(0), fp(2), 2.0, at(10), 1);  // stale
  const std::vector<dir::Fingerprint> nodes = {fp(0), fp(1), fp(2)};
  const auto cc = m.coverage(nodes, at(100), Duration::seconds(10));
  EXPECT_EQ(cc.total, 3u);
  EXPECT_EQ(cc.fresh, 1u);
  EXPECT_EQ(cc.stale, 1u);
  EXPECT_EQ(cc.missing, 1u);
  EXPECT_DOUBLE_EQ(cc.coverage(), 1.0 / 3.0);
  // Degenerate node sets are fully covered by definition.
  EXPECT_DOUBLE_EQ(m.coverage({}, at(100), Duration::seconds(10)).coverage(),
                   1.0);
}

TEST(SparseRttMatrixTest, EraseRelayDropsAllTouchingPairs) {
  RttMatrix m = random_matrix(7, 8);
  const std::size_t before = m.size();
  std::size_t touching = 0;
  for (std::size_t j = 0; j < 8; ++j)
    if (j != 3 && m.contains(fp(3), fp(j))) ++touching;
  EXPECT_EQ(m.erase_relay(fp(3)), touching);
  EXPECT_EQ(m.size(), before - touching);
  for (std::size_t j = 0; j < 8; ++j) EXPECT_FALSE(m.contains(fp(3), fp(j)));
}

TEST(SparseRttMatrixTest, DenseInteropAndCsvSchema) {
  // The CSV schema of the published datasets, one row per pair in
  // canonical order, so every artifact drops into existing tooling.
  Reference ref;
  const RttMatrix m = random_matrix(23, 9, &ref);
  ASSERT_EQ(m.size(), ref.size());
  std::ostringstream want;
  want << "fp_a,fp_b,rtt_ms,measured_at_ns,samples\n";
  for (const auto& [k, e] : ref)
    want << k.first.hex() << "," << k.second.hex() << "," << e.rtt_ms << ","
         << e.measured_at.ns() << "," << e.samples << "\n";
  EXPECT_EQ(m.to_csv(), want.str());
  // The order pairs were recorded in (and their orientation) never leaks
  // into the artifacts.
  RttMatrix reversed;
  for (auto it = ref.rbegin(); it != ref.rend(); ++it)
    reversed.set(it->first.second, it->first.first, it->second.rtt_ms,
                 it->second.measured_at, it->second.samples);
  EXPECT_TRUE(same_entries(reversed, m));
  EXPECT_EQ(reversed.to_csv(), m.to_csv());
  // The parser accepts the writer's output: CSV text is a fixed point, and
  // stamps and sample counts survive exactly.
  const RttMatrix reparsed = RttMatrix::from_csv(m.to_csv());
  EXPECT_EQ(reparsed.to_csv(), m.to_csv());
  for (const auto& [k, e] : ref) {
    const RttMatrix::Entry* got = reparsed.entry(k.first, k.second);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->measured_at, e.measured_at);
    EXPECT_EQ(got->samples, e.samples);
  }
}

TEST(SparseRttMatrixTest, AggregatesMatchDense) {
  // Aggregates walk the pairs in canonical order, so they are functions of
  // the entries alone, not of the hash table's layout.
  Reference ref;
  const RttMatrix m = random_matrix(31, 7, &ref);
  std::set<dir::Fingerprint> nodes;
  std::vector<double> values;
  for (const auto& [k, e] : ref) {
    nodes.insert(k.first);
    nodes.insert(k.second);
    values.push_back(e.rtt_ms);
  }
  EXPECT_EQ(m.nodes(),
            std::vector<dir::Fingerprint>(nodes.begin(), nodes.end()));
  EXPECT_EQ(m.values(), values);
}

TEST(SparseRttMatrixTest, ExpiredPairsMatchBruteForceUnderRandomOps) {
  // The freshness wheel (lazy invalidation + periodic compaction) and the
  // presence rows must stay equivalent to re-scanning every entry, through
  // any interleaving of inserts, overwrites, restamps, merges, and relay
  // erasure: expired_pairs(), coverage() and nodes() agree with a
  // brute-force reference, and the binary image reloads to itself.
  Rng rng(911);
  const std::size_t n = 14;
  RttMatrix m;
  std::map<std::pair<std::size_t, std::size_t>, std::int64_t> reference;
  const auto check = [&](std::int64_t now_s, std::int64_t ttl_s) {
    std::vector<std::tuple<std::int64_t, std::size_t, std::size_t>> want;
    for (const auto& [k, t] : reference)
      if (now_s - t > ttl_s) want.emplace_back(t, k.first, k.second);
    std::sort(want.begin(), want.end());
    const auto got = m.expired_pairs(at(now_s), Duration::seconds(ttl_s));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].measured_at, at(std::get<0>(want[k])));
      EXPECT_EQ(got[k].a, fp(std::get<1>(want[k])));
      EXPECT_EQ(got[k].b, fp(std::get<2>(want[k])));
    }
  };
  for (int round = 0; round < 40; ++round) {
    for (int op = 0; op < 25; ++op) {
      const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      if (i == j) j = (j + 1) % n;
      const std::pair<std::size_t, std::size_t> key = std::minmax(i, j);
      const auto t = static_cast<std::int64_t>(rng.uniform_int(1, 200));
      m.set(fp(key.first), fp(key.second), rng.uniform() * 100.0, at(t), 1);
      reference[key] = t;
    }
    if (round % 7 == 3) {
      // Merge a batch in. Within the batch set() overwrites, so the batch
      // holds each pair's last stamp; merge() is freshest-wins, and the
      // expiry check only compares stamps, so the reference keeps the max
      // of the two (the equal-stamp value tiebreak cannot change
      // measured_at).
      RttMatrix other;
      std::map<std::pair<std::size_t, std::size_t>, std::int64_t> batch;
      for (int k = 0; k < 10; ++k) {
        const auto i = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
        if (i == j) j = (j + 1) % n;
        const std::pair<std::size_t, std::size_t> key = std::minmax(i, j);
        const auto t = static_cast<std::int64_t>(rng.uniform_int(1, 200));
        other.set(fp(key.first), fp(key.second), 500.0 + k, at(t), 1);
        batch[key] = t;
      }
      for (const auto& [key, t] : batch) {
        const auto it = reference.find(key);
        if (it == reference.end() || it->second < t) reference[key] = t;
      }
      m.merge(other);
    }
    if (round % 11 == 5) {
      const std::size_t victim = rng.uniform_int(0, n - 1);
      m.erase_relay(fp(victim));
      std::erase_if(reference, [&](const auto& kv) {
        return kv.first.first == victim || kv.first.second == victim;
      });
    }
    const auto ttl_s = static_cast<std::int64_t>(rng.uniform_int(1, 220));
    check(210, ttl_s);

    // Coverage over a random member set, including a relay never stored.
    std::vector<dir::Fingerprint> members = {fp(n + 3)};
    std::vector<bool> is_member(n, false);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.uniform() < 0.6) {
        members.push_back(fp(i));
        is_member[i] = true;
      }
    RttMatrix::CoverageCount want;
    want.total = members.size() * (members.size() - 1) / 2;
    std::set<dir::Fingerprint> stored;
    for (const auto& [k, t] : reference) {
      stored.insert(fp(k.first));
      stored.insert(fp(k.second));
      if (!is_member[k.first] || !is_member[k.second]) continue;
      if (210 - t <= ttl_s) {
        ++want.fresh;
      } else {
        ++want.stale;
      }
    }
    want.missing = want.total - want.fresh - want.stale;
    const auto got = m.coverage(members, at(210), Duration::seconds(ttl_s));
    EXPECT_EQ(got.total, want.total) << "round " << round;
    EXPECT_EQ(got.fresh, want.fresh) << "round " << round;
    EXPECT_EQ(got.stale, want.stale) << "round " << round;
    EXPECT_EQ(got.missing, want.missing) << "round " << round;
    EXPECT_EQ(m.nodes(),
              std::vector<dir::Fingerprint>(stored.begin(), stored.end()))
        << "round " << round;
    const std::string image = m.to_bin();
    EXPECT_EQ(RttMatrix::from_bin(image).to_bin(), image) << "round " << round;
  }
}

TEST(SparseRttMatrixTest, RestampBackToOldValueNotDuplicated) {
  // Re-stamping a pair to a value it held before can leave two live-looking
  // records in the same wheel bucket; enumeration must dedupe.
  RttMatrix m;
  m.set(fp(1), fp(2), 1.0, at(10), 1);
  m.set(fp(1), fp(2), 2.0, at(50), 1);
  m.set(fp(1), fp(2), 3.0, at(10), 1);  // back to the original stamp
  const auto expired = m.expired_pairs(at(100), Duration::seconds(5));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].measured_at, at(10));
  // Same-stamp overwrite is also not a new wheel record.
  m.set(fp(1), fp(2), 4.0, at(10), 1);
  EXPECT_EQ(m.expired_pairs(at(100), Duration::seconds(5)).size(), 1u);
}

TEST(SparseRttMatrixTest, MemoryBytesAndReservePolicy) {
  RttMatrix m;
  const std::size_t empty_bytes = m.memory_bytes();
  m.reserve_pairs(5000);
  for (std::size_t i = 0; i < 100; ++i)
    for (std::size_t j = i + 1; j < 100; ++j)
      if ((i + j) % 2 == 0) m.set(fp(i), fp(j), 1.0, at(1), 1);
  ASSERT_GT(m.size(), 2000u);
  const std::size_t full_bytes = m.memory_bytes();
  EXPECT_GT(full_bytes, empty_bytes);
  // The estimate should land in the right ballpark per entry: at least the
  // raw key+entry payload, and not wildly above it (the 18M-entry budget in
  // ROADMAP assumes a low-hundreds bytes/pair figure).
  const double per_pair =
      static_cast<double>(full_bytes) / static_cast<double>(m.size());
  EXPECT_GT(per_pair, 48.0);
  EXPECT_LT(per_pair, 512.0);
  EXPECT_LE(m.load_factor(), RttMatrix::kMaxLoadFactor + 0.01f);
}

TEST(SparseRttMatrixTest, SaveLoadAnySniffsFormat) {
  const RttMatrix m = random_matrix(5, 6);
  const std::string dir = ::testing::TempDir();
  const std::string bin_path = dir + "/sm_test.tingmx";
  const std::string csv_path = dir + "/sm_test.csv";
  m.save_bin(bin_path);
  m.save_csv(csv_path);

  const RttMatrix from_disk = RttMatrix::load_bin(bin_path);
  EXPECT_TRUE(same_entries(from_disk, m));

  const RttMatrix via_bin = RttMatrix::load(bin_path);
  const RttMatrix via_csv = RttMatrix::load(csv_path);
  EXPECT_TRUE(same_entries(via_bin, m));
  // CSV rounds to 6 significant digits, so compare through CSV text (the
  // binary path must not lose anything the CSV path keeps).
  EXPECT_EQ(via_bin.to_csv(), m.to_csv());
  EXPECT_EQ(via_csv.to_csv(), RttMatrix::from_csv(m.to_csv()).to_csv());
}

}  // namespace
}  // namespace ting::meas
