#include "ting/half_circuit_cache.h"

#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ting/bin_codec.h"
#include "util/assert.h"
#include "util/atomic_file.h"
#include "util/bytes.h"

namespace ting::meas {

namespace {

constexpr const char* kCsvHeader =
    "host_fp,relay_fp,rtt_ms,measured_at_ns,samples";

}  // namespace

void HalfCircuitCache::store(const dir::Fingerprint& host_w,
                             const dir::Fingerprint& relay, double rtt_ms,
                             TimePoint measured_at, int samples) {
  TING_CHECK_MSG(!(host_w == relay),
                 "half-circuit cache: apparatus cannot be its own target");
  const Entry entry{rtt_ms, measured_at, samples};
  entries_[Key{host_w, relay}] = entry;
  if (store_observer_) store_observer_(host_w, relay, entry);
}

const HalfCircuitCache::Entry* HalfCircuitCache::lookup(
    const dir::Fingerprint& host_w, const dir::Fingerprint& relay) const {
  const auto it = entries_.find(Key{host_w, relay});
  if (it == entries_.end()) return nullptr;
  return &it->second;
}

const HalfCircuitCache::Entry* HalfCircuitCache::fresh(
    const dir::Fingerprint& host_w, const dir::Fingerprint& relay,
    TimePoint now) const {
  const Entry* e = lookup(host_w, relay);
  if (e == nullptr || now - e->measured_at > max_age_) return nullptr;
  return e;
}

bool HalfCircuitCache::erase(const dir::Fingerprint& host_w,
                             const dir::Fingerprint& relay) {
  return entries_.erase(Key{host_w, relay}) > 0;
}

std::size_t HalfCircuitCache::erase_relay(const dir::Fingerprint& relay) {
  std::size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.second == relay) {
      it = entries_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

void HalfCircuitCache::merge_freshest(const HalfCircuitCache& other) {
  for (const auto& [k, v] : other.entries_) {
    const auto it = entries_.find(k);
    if (it == entries_.end() || v.measured_at > it->second.measured_at)
      entries_[k] = v;
  }
}

std::string HalfCircuitCache::to_csv() const {
  std::ostringstream os;
  os << kCsvHeader << "\n";
  for (const auto& [k, v] : entries_) {
    os << k.first.hex() << "," << k.second.hex() << "," << v.rtt_ms << ","
       << v.measured_at.ns() << "," << v.samples << "\n";
  }
  return os.str();
}

HalfCircuitCache HalfCircuitCache::from_csv(const std::string& csv) {
  const std::vector<std::string> lines = split(csv, '\n');
  // A file without its header would otherwise lose its first entry.
  TING_CHECK_MSG(lines.front() == kCsvHeader,
                 "half-circuit cache CSV line 1 is not the header \""
                     << kCsvHeader << "\": " << lines.front());
  HalfCircuitCache c;
  for (std::size_t n = 1; n < lines.size(); ++n) {
    const std::string& line = lines[n];
    if (trim(line).empty()) continue;
    const auto cols = split(line, ',');
    TING_CHECK_MSG(cols.size() == 5, "bad half-circuit cache row: " << line);
    // Same strict parsing as RttMatrix::from_csv: re-raise stod/stoll/stoi
    // failures as CheckError naming the line, and reject trailing junk.
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
    TING_CHECK_MSG(ok, "bad half-circuit cache row: " << line);
    c.store(dir::Fingerprint::from_hex(cols[0]),
            dir::Fingerprint::from_hex(cols[1]), rtt_ms,
            TimePoint::from_ns(at_ns), samples);
  }
  return c;
}

void HalfCircuitCache::save_csv(const std::string& path) const {
  // Crash-safe replacement, same rationale as RttMatrix::save_csv.
  atomic_write_file(path, to_csv());
}

HalfCircuitCache HalfCircuitCache::load_csv(const std::string& path) {
  std::ifstream f(path);
  TING_CHECK_MSG(f.good(), "cannot open " << path);
  std::stringstream buf;
  buf << f.rdbuf();
  return from_csv(buf.str());
}

std::string HalfCircuitCache::to_bin() const {
  // Same fixed 60-byte record layout as the RTT matrix: (host_w, relay)
  // in place of the pair, then rtt bits / timestamp / samples. The ordered
  // map iterates in key order, so equal caches serialize to equal bytes.
  std::string out;
  out.reserve(16 + entries_.size() * 60);
  out.append(kBinMagic, 8);
  binfmt::put_u64le(out, entries_.size());
  for (const auto& [k, v] : entries_) {
    binfmt::put_fp(out, k.first);
    binfmt::put_fp(out, k.second);
    binfmt::put_u64le(out, std::bit_cast<std::uint64_t>(v.rtt_ms));
    binfmt::put_u64le(out, static_cast<std::uint64_t>(v.measured_at.ns()));
    binfmt::put_u32le(out, static_cast<std::uint32_t>(v.samples));
  }
  return out;
}

HalfCircuitCache HalfCircuitCache::from_bin(const std::string& bin) {
  TING_CHECK_MSG(bin.size() >= 16 && std::memcmp(bin.data(), kBinMagic, 8) == 0,
                 "half-circuit cache: missing TINGHCX1 magic");
  const std::uint64_t count = binfmt::get_u64le(bin, 8);
  TING_CHECK_MSG(bin.size() == 16 + count * 60,
                 "half-circuit cache: truncated binary image ("
                     << bin.size() << " bytes for " << count << " records)");
  HalfCircuitCache c;
  for (std::uint64_t r = 0; r < count; ++r) {
    const std::size_t off = 16 + r * 60;
    const dir::Fingerprint host_w = binfmt::get_fp(bin, off);
    const dir::Fingerprint relay = binfmt::get_fp(bin, off + 20);
    const double rtt_ms = std::bit_cast<double>(binfmt::get_u64le(bin, off + 40));
    const auto at_ns = static_cast<std::int64_t>(binfmt::get_u64le(bin, off + 48));
    const auto samples = static_cast<std::int32_t>(binfmt::get_u32le(bin, off + 56));
    // Direct insertion: loading moves already-recorded entries around, so
    // the store observer must not re-fire (see the header's observer note).
    c.entries_[Key{host_w, relay}] = Entry{rtt_ms, TimePoint::from_ns(at_ns),
                                           static_cast<int>(samples)};
  }
  return c;
}

void HalfCircuitCache::save_bin(const std::string& path) const {
  atomic_write_file(path, to_bin());
}

HalfCircuitCache HalfCircuitCache::load_bin(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  TING_CHECK_MSG(f.good(), "cannot open " << path);
  std::stringstream buf;
  buf << f.rdbuf();
  return from_bin(buf.str());
}

}  // namespace ting::meas
