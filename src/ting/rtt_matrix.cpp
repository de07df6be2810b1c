#include "ting/rtt_matrix.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "ting/bin_codec.h"
#include "util/assert.h"
#include "util/atomic_file.h"
#include "util/bytes.h"

namespace ting::meas {

using binfmt::get_fp;
using binfmt::get_u32le;
using binfmt::get_u64le;
using binfmt::put_fp;
using binfmt::put_u32le;
using binfmt::put_u64le;

namespace {

constexpr const char* kCsvHeader = "fp_a,fp_b,rtt_ms,measured_at_ns,samples";

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  TING_CHECK_MSG(f.good(), "cannot open " << path);
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

}  // namespace

bool RttMatrix::fresher(const Entry& l, const Entry& r) {
  if (l.measured_at != r.measured_at) return l.measured_at > r.measured_at;
  const std::uint64_t lb = std::bit_cast<std::uint64_t>(l.rtt_ms);
  const std::uint64_t rb = std::bit_cast<std::uint64_t>(r.rtt_ms);
  if (lb != rb) return lb > rb;
  return l.samples > r.samples;
}

RttMatrix::RelayId RttMatrix::intern(const dir::Fingerprint& fp) {
  auto [it, inserted] =
      id_of_.try_emplace(fp, static_cast<RelayId>(relays_.size()));
  if (inserted) relays_.push_back(Relay{fp, 0, {}});
  return it->second;
}

RttMatrix::RelayId RttMatrix::find_relay(const dir::Fingerprint& fp) const {
  auto it = id_of_.find(fp);
  return it == id_of_.end() ? kNoRelay : it->second;
}

bool RttMatrix::present(RelayId a, RelayId b) const {
  if (a == kNoRelay || b == kNoRelay) return false;
  const std::vector<std::uint64_t>& row = relays_[a].row;
  const std::size_t w = b >> 6;
  return w < row.size() && ((row[w] >> (b & 63)) & 1) != 0;
}

void RttMatrix::mark(RelayId a, RelayId b) {
  const auto set_bit = [](Relay& r, RelayId bit) {
    const std::size_t w = bit >> 6;
    if (r.row.size() <= w) r.row.resize(w + 1, 0);
    r.row[w] |= std::uint64_t{1} << (bit & 63);
    ++r.degree;
  };
  set_bit(relays_[a], b);
  set_bit(relays_[b], a);
}

std::vector<RttMatrix::RelayId> RttMatrix::translate(const RttMatrix& other) {
  std::vector<RelayId> to_mine(other.relays_.size(), kNoRelay);
  for (std::size_t id = 0; id < other.relays_.size(); ++id)
    if (other.relays_[id].degree > 0)
      to_mine[id] = intern(other.relays_[id].fp);
  return to_mine;
}

void RttMatrix::wheel_insert(PairKey k, TimePoint at) {
  wheel_[at.ns()].push_back(k);
}

void RttMatrix::wheel_maybe_compact() {
  if (wheel_garbage_ <= entries_.size() + 64) return;
  wheel_.clear();
  wheel_garbage_ = 0;
  for (const auto& [k, v] : entries_) wheel_insert(k, v.measured_at);
}

void RttMatrix::put(RelayId a, RelayId b, const Entry& e) {
  const PairKey k = pack(a, b);
  auto [it, inserted] = entries_.try_emplace(k, e);
  if (inserted) {
    mark(a, b);
  } else {
    const bool restamped = it->second.measured_at != e.measured_at;
    it->second = e;
    // Same stamp: the existing wheel record still points at the live bucket.
    if (!restamped) return;
    ++wheel_garbage_;
  }
  wheel_insert(k, e.measured_at);
  wheel_maybe_compact();
}

void RttMatrix::set(const dir::Fingerprint& a, const dir::Fingerprint& b,
                    double rtt_ms, TimePoint measured_at, int samples) {
  TING_CHECK_MSG(!(a == b), "RttMatrix: self-pairs are not meaningful");
  const RelayId ia = intern(a);  // sequenced: ids follow first appearance
  put(ia, intern(b), Entry{rtt_ms, measured_at, samples});
}

const RttMatrix::Entry* RttMatrix::entry(const dir::Fingerprint& a,
                                         const dir::Fingerprint& b) const {
  const RelayId ia = find_relay(a);
  const RelayId ib = find_relay(b);
  if (!present(ia, ib)) return nullptr;
  return &entries_.find(pack(ia, ib))->second;
}

std::optional<double> RttMatrix::rtt(const dir::Fingerprint& a,
                                     const dir::Fingerprint& b) const {
  const Entry* e = entry(a, b);
  if (e == nullptr) return std::nullopt;
  return e->rtt_ms;
}

bool RttMatrix::contains(const dir::Fingerprint& a,
                         const dir::Fingerprint& b) const {
  return present(find_relay(a), find_relay(b));
}

bool RttMatrix::is_fresh(const dir::Fingerprint& a, const dir::Fingerprint& b,
                         TimePoint now, Duration max_age) const {
  const Entry* e = entry(a, b);
  return e != nullptr && now - e->measured_at <= max_age;
}

void RttMatrix::merge(const RttMatrix& other) {
  reserve_pairs(entries_.size() + other.entries_.size());
  const std::vector<RelayId> to_mine = translate(other);
  for (const auto& [k, v] : other.entries_) {
    const RelayId a = to_mine[lo(k)];
    const RelayId b = to_mine[hi(k)];
    const auto it = entries_.find(pack(a, b));
    if (it == entries_.end() || fresher(v, it->second)) put(a, b, v);
  }
}

void RttMatrix::absorb(const RttMatrix& results, TimePoint stamp) {
  const std::vector<RelayId> to_mine = translate(results);
  for (const auto& [k, v] : results.entries_)
    put(to_mine[lo(k)], to_mine[hi(k)], Entry{v.rtt_ms, stamp, v.samples});
}

std::size_t RttMatrix::erase_relay(const dir::Fingerprint& relay) {
  const RelayId id = find_relay(relay);
  if (id == kNoRelay) return 0;
  // The relay's row names exactly the entries to drop; clear its bit in
  // each partner's row, then the row itself.
  Relay& gone = relays_[id];
  const std::uint64_t id_bit = std::uint64_t{1} << (id & 63);
  for (std::size_t w = 0; w < gone.row.size(); ++w) {
    for (std::uint64_t bits = gone.row[w]; bits != 0; bits &= bits - 1) {
      const auto other = static_cast<RelayId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      entries_.erase(pack(id, other));
      Relay& partner = relays_[other];
      partner.row[id >> 6] &= ~id_bit;
      --partner.degree;
    }
    gone.row[w] = 0;
  }
  const std::size_t dropped = gone.degree;
  gone.degree = 0;
  wheel_garbage_ += dropped;  // the wheel records go stale, not away
  wheel_maybe_compact();
  return dropped;
}

void RttMatrix::reserve_pairs(std::size_t pairs) {
  entries_.max_load_factor(kMaxLoadFactor);
  entries_.reserve(pairs);
}

std::size_t RttMatrix::memory_bytes() const {
  // libstdc++ hash nodes carry a next pointer alongside the payload; the
  // hash code is cached too unless the hasher is noexcept (PairKeyHash is,
  // std::hash<Fingerprint> is not). The bucket array is one pointer per
  // bucket.
  constexpr std::size_t kNext = sizeof(void*);
  std::size_t bytes =
      entries_.size() * (sizeof(std::pair<const PairKey, Entry>) + kNext) +
      entries_.bucket_count() * sizeof(void*);
  // Relay table: the records, their presence rows and the fingerprint index.
  bytes += relays_.capacity() * sizeof(Relay);
  for (const Relay& r : relays_)
    bytes += r.row.capacity() * sizeof(std::uint64_t);
  bytes += id_of_.size() * (sizeof(std::pair<const dir::Fingerprint, RelayId>) +
                            kNext + sizeof(std::size_t)) +
           id_of_.bucket_count() * sizeof(void*);
  // Wheel: a red-black tree node per distinct stamp plus the key vectors.
  constexpr std::size_t kTreeNodeOverhead = 4 * sizeof(void*);
  for (const auto& [at, keys] : wheel_) {
    bytes += kTreeNodeOverhead + sizeof(std::int64_t) + sizeof(keys) +
             keys.capacity() * sizeof(PairKey);
  }
  return bytes;
}

RttMatrix::CanonicalOrder RttMatrix::canonical_order() const {
  CanonicalOrder order;
  order.by_rank.resize(relays_.size());
  std::iota(order.by_rank.begin(), order.by_rank.end(), RelayId{0});
  std::sort(order.by_rank.begin(), order.by_rank.end(),
            [this](RelayId l, RelayId r) {
              return relays_[l].fp < relays_[r].fp;
            });
  std::vector<std::uint32_t> rank(relays_.size());
  for (std::size_t r = 0; r < order.by_rank.size(); ++r)
    rank[order.by_rank[r]] = static_cast<std::uint32_t>(r);
  order.items.reserve(entries_.size());
  for (const auto& [k, v] : entries_) {
    const std::uint64_t ra = rank[lo(k)];
    const std::uint64_t rb = rank[hi(k)];
    order.items.emplace_back(ra < rb ? (ra << 32) | rb : (rb << 32) | ra, &v);
  }
  std::sort(order.items.begin(), order.items.end(),
            [](const auto& l, const auto& r) { return l.first < r.first; });
  return order;
}

std::vector<dir::Fingerprint> RttMatrix::nodes() const {
  std::vector<dir::Fingerprint> out;
  for (const Relay& r : relays_)
    if (r.degree > 0) out.push_back(r.fp);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<double> RttMatrix::values() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& [k, e] : canonical_order().items) out.push_back(e->rtt_ms);
  return out;
}

std::vector<RttMatrix::PairKey> RttMatrix::expired_keys(
    TimePoint now, Duration max_age) const {
  // Walk wheel buckets oldest-first and stop at the TTL horizon; validate
  // each record against the live entry (overwrites leave stale records
  // behind). A pair re-stamped back to an earlier value can leave two valid
  // records in one bucket, so dedupe after the sort.
  std::vector<PairKey> out;
  for (const auto& [at_ns, keys] : wheel_) {
    if (now.ns() - at_ns <= max_age.ns()) break;
    for (const PairKey k : keys) {
      auto it = entries_.find(k);
      if (it != entries_.end() && it->second.measured_at.ns() == at_ns)
        out.push_back(k);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<RttMatrix::PairAge> RttMatrix::expired_pairs(
    TimePoint now, Duration max_age) const {
  std::vector<PairAge> out;
  for (const PairKey k : expired_keys(now, max_age)) {
    const dir::Fingerprint& a = relays_[lo(k)].fp;
    const dir::Fingerprint& b = relays_[hi(k)].fp;
    const TimePoint at = entries_.find(k)->second.measured_at;
    out.push_back(a < b ? PairAge{a, b, at} : PairAge{b, a, at});
  }
  std::sort(out.begin(), out.end(), [](const PairAge& l, const PairAge& r) {
    if (l.measured_at != r.measured_at) return l.measured_at < r.measured_at;
    if (l.a != r.a) return l.a < r.a;
    return l.b < r.b;
  });
  return out;
}

std::vector<std::uint64_t> RttMatrix::member_mask(
    const std::vector<dir::Fingerprint>& nodes) const {
  std::vector<std::uint64_t> mask((relays_.size() + 63) / 64, 0);
  for (const dir::Fingerprint& fp : nodes)
    if (const RelayId id = find_relay(fp); id != kNoRelay)
      mask[id >> 6] |= std::uint64_t{1} << (id & 63);
  return mask;
}

std::size_t RttMatrix::present_pairs(
    const std::vector<std::uint64_t>& mask) const {
  // Every stored member pair shows up in both members' rows.
  std::size_t twice = 0;
  for (std::size_t mw = 0; mw < mask.size(); ++mw) {
    for (std::uint64_t bits = mask[mw]; bits != 0; bits &= bits - 1) {
      const std::vector<std::uint64_t>& row =
          relays_[mw * 64 + static_cast<std::size_t>(std::countr_zero(bits))]
              .row;
      const std::size_t words = std::min(row.size(), mask.size());
      for (std::size_t w = 0; w < words; ++w)
        twice += static_cast<std::size_t>(std::popcount(row[w] & mask[w]));
    }
  }
  return twice / 2;
}

RttMatrix::MissingPairs RttMatrix::missing_pairs(
    const std::vector<dir::Fingerprint>& nodes, std::size_t limit) const {
  const std::size_t n = nodes.size();
  MissingPairs out;
  out.count = n * (n - 1) / 2 - present_pairs(member_mask(nodes));
  const std::size_t want = std::min(limit, out.count);
  if (want == 0) return out;
  std::vector<RelayId> ids(n);
  for (std::size_t k = 0; k < n; ++k) ids[k] = find_relay(nodes[k]);
  out.first.reserve(want);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (present(ids[i], ids[j])) continue;
      out.first.emplace_back(i, j);
      if (out.first.size() == want) return out;
    }
  }
  return out;
}

RttMatrix::CoverageCount RttMatrix::coverage(
    const std::vector<dir::Fingerprint>& nodes, TimePoint now,
    Duration max_age) const {
  CoverageCount c;
  c.total = nodes.size() * (nodes.size() - 1) / 2;
  const std::vector<std::uint64_t> mask = member_mask(nodes);
  const auto member = [&mask](RelayId id) {
    return ((mask[id >> 6] >> (id & 63)) & 1) != 0;
  };
  const std::size_t present = present_pairs(mask);
  for (const PairKey k : expired_keys(now, max_age))
    if (member(lo(k)) && member(hi(k))) ++c.stale;
  c.fresh = present - c.stale;
  c.missing = c.total - present;
  return c;
}

std::string RttMatrix::to_csv() const {
  std::ostringstream os;
  os << kCsvHeader << "\n";
  const CanonicalOrder order = canonical_order();
  for (std::size_t k = 0; k < order.items.size(); ++k) {
    const Entry& v = *order.items[k].second;
    os << order.fp_a(*this, k).hex() << "," << order.fp_b(*this, k).hex()
       << "," << v.rtt_ms << "," << v.measured_at.ns() << "," << v.samples
       << "\n";
  }
  return os.str();
}

RttMatrix RttMatrix::from_csv(const std::string& csv) {
  const std::vector<std::string> lines = split(csv, '\n');
  // A file without its header would otherwise lose its first pair.
  TING_CHECK_MSG(lines.front() == kCsvHeader,
                 "RTT matrix CSV line 1 is not the header \""
                     << kCsvHeader << "\": " << lines.front());
  RttMatrix m;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    if (trim(line).empty()) continue;
    const auto cols = split(line, ',');
    TING_CHECK_MSG(cols.size() == 5, "bad RTT matrix row: " << line);
    // stod/stoll/stoi throw bare std::invalid_argument / std::out_of_range
    // on garbage; re-raise them as CheckError naming the offending line, and
    // reject trailing junk ("1.5x") they would silently accept.
    double rtt_ms = 0;
    long long at_ns = 0;
    int samples = 0;
    bool ok = false;
    try {
      std::size_t pos = 0;
      rtt_ms = std::stod(cols[2], &pos);
      if (pos == cols[2].size()) {
        at_ns = std::stoll(cols[3], &pos);
        if (pos == cols[3].size()) {
          samples = std::stoi(cols[4], &pos);
          ok = pos == cols[4].size();
        }
      }
    } catch (const std::invalid_argument&) {
    } catch (const std::out_of_range&) {
    }
    TING_CHECK_MSG(ok, "bad RTT matrix row: " << line);
    // Negative estimates are legal (R_Cxy - R_Cx/2 - R_Cy/2 can dip below
    // 0); NaN and infinity are not RTTs.
    TING_CHECK_MSG(std::isfinite(rtt_ms), "RTT matrix CSV line "
                                              << n + 1 << ": non-finite RTT: "
                                              << line);
    m.set(dir::Fingerprint::from_hex(cols[0]),
          dir::Fingerprint::from_hex(cols[1]), rtt_ms,
          TimePoint::from_ns(at_ns), samples);
  }
  return m;
}

void RttMatrix::save_csv(const std::string& path) const {
  // Crash-safe replacement: a reader never observes a torn matrix, and a
  // failed write (disk full, bad path) throws instead of silently losing
  // the dataset.
  atomic_write_file(path, to_csv());
}

RttMatrix RttMatrix::load_csv(const std::string& path) {
  return from_csv(read_file(path));
}

std::string RttMatrix::to_bin() const {
  std::string out;
  out.reserve(16 + entries_.size() * kBinRecordSize);
  out.append(kBinMagic, 8);
  put_u64le(out, entries_.size());
  const CanonicalOrder order = canonical_order();
  for (std::size_t k = 0; k < order.items.size(); ++k) {
    const Entry& v = *order.items[k].second;
    put_fp(out, order.fp_a(*this, k));
    put_fp(out, order.fp_b(*this, k));
    put_u64le(out, std::bit_cast<std::uint64_t>(v.rtt_ms));
    put_u64le(out, static_cast<std::uint64_t>(v.measured_at.ns()));
    put_u32le(out, static_cast<std::uint32_t>(v.samples));
  }
  return out;
}

RttMatrix RttMatrix::from_bin(const std::string& bin) {
  TING_CHECK_MSG(bin.size() >= 16 && std::memcmp(bin.data(), kBinMagic, 8) == 0,
                 "RTT matrix: missing TINGSMX1 magic");
  // Divide rather than multiply: 16 + count * 60 wraps for a hostile count.
  const std::uint64_t count = get_u64le(bin, 8);
  const std::size_t body = bin.size() - 16;
  TING_CHECK_MSG(body % kBinRecordSize == 0 && count == body / kBinRecordSize,
                 "RTT matrix: truncated binary image ("
                     << bin.size() << " bytes for " << count << " records)");
  RttMatrix m;
  m.reserve_pairs(count);
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::size_t off = 16 + r * kBinRecordSize;
    const dir::Fingerprint a = get_fp(bin, off);
    const dir::Fingerprint b = get_fp(bin, off + 20);
    const double rtt_ms = std::bit_cast<double>(get_u64le(bin, off + 40));
    TING_CHECK_MSG(std::isfinite(rtt_ms),
                   "RTT matrix: record " << r << " has a non-finite RTT");
    const auto at_ns = static_cast<std::int64_t>(get_u64le(bin, off + 48));
    const auto samples = static_cast<std::int32_t>(get_u32le(bin, off + 56));
    m.set(a, b, rtt_ms, TimePoint::from_ns(at_ns), samples);
  }
  return m;
}

void RttMatrix::save_bin(const std::string& path) const {
  atomic_write_file(path, to_bin());
}

RttMatrix RttMatrix::load_bin(const std::string& path) {
  return from_bin(read_file(path));
}

RttMatrix RttMatrix::load(const std::string& path) {
  const std::string content = read_file(path);
  if (content.size() >= 8 && std::memcmp(content.data(), kBinMagic, 8) == 0)
    return from_bin(content);
  return from_csv(content);
}

}  // namespace ting::meas
