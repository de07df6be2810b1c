#include "ting/scan_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "util/assert.h"
#include "util/atomic_file.h"
#include "util/bytes.h"

namespace ting::meas {

namespace {

/// FNV-1a 64 — the per-record checksum. Not cryptographic; it only needs to
/// catch torn writes and bit rot in the tail of a crashed journal.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Exact-bits serialization of a double: the CSV artifacts print 6
/// significant digits, so decimal round-tripping would perturb resumed
/// estimates; the journal stores the IEEE-754 bit pattern.
std::string rtt_bits(double v) {
  return hex64(std::bit_cast<std::uint64_t>(v));
}

/// Strict parsers: return false on any malformation (the caller treats the
/// whole record as corrupt).
bool parse_u64_hex(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else return false;
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  out = v;
  return true;
}

bool parse_i64(const std::string& s, std::int64_t& out) {
  if (s.empty()) return false;
  try {
    std::size_t pos = 0;
    out = std::stoll(s, &pos);
    return pos == s.size();
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  return false;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  try {
    std::size_t pos = 0;
    out = std::stoull(s, &pos);
    return pos == s.size();
  } catch (const std::invalid_argument&) {
  } catch (const std::out_of_range&) {
  }
  return false;
}

bool parse_int(const std::string& s, int& out) {
  std::int64_t v = 0;
  if (!parse_i64(s, v) || v < INT_MIN || v > INT_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_fp(const std::string& s, dir::Fingerprint& out) {
  try {
    out = dir::Fingerprint::from_hex(s);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Keep a failure message one CSV field: commas and newlines become spaces.
std::string sanitize(std::string s) {
  for (char& c : s)
    if (c == ',' || c == '\n' || c == '\r') c = ' ';
  return s;
}

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

ScanJournal::ScanJournal(std::string path, Mode mode, Meta meta)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  TING_CHECK_MSG(fd_ >= 0, "scan journal: cannot open " << path_ << ": "
                                                        << std::strerror(errno));
  if (mode == Mode::kFresh) {
    TING_CHECK_MSG(::ftruncate(fd_, 0) == 0,
                   "scan journal: cannot truncate " << path_ << ": "
                                                    << std::strerror(errno));
  } else {
    replay_existing();
  }
  if (saw_meta_) {
    TING_CHECK_MSG(
        meta_.version == meta.version && meta_.pair_seed == meta.pair_seed &&
            meta_.nodes == meta.nodes,
        "scan journal " << path_ << " belongs to a different scan (journal: "
                        << "v" << meta_.version << " seed " << meta_.pair_seed
                        << " nodes " << meta_.nodes << "; this scan: v"
                        << meta.version << " seed " << meta.pair_seed
                        << " nodes " << meta.nodes << ")");
  } else {
    meta_ = meta;
    const std::lock_guard<std::mutex> lock(mu_);
    append_line_locked("J," + std::to_string(meta_.version) + "," +
                       std::to_string(meta_.pair_seed) + "," +
                       std::to_string(meta_.nodes));
    saw_meta_ = true;
  }
}

ScanJournal::~ScanJournal() {
  if (fd_ >= 0) ::close(fd_);
}

void ScanJournal::replay_existing() {
  std::string content;
  {
    char buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        TING_CHECK_MSG(false, "scan journal: cannot read " << path_ << ": "
                                                           << std::strerror(errno));
      }
      if (n == 0) break;
      content.append(buf, static_cast<std::size_t>(n));
    }
  }

  // Replay line by line; the first incomplete (no trailing '\n') or corrupt
  // record invalidates everything after it — an append-only log has no way
  // to resynchronise past damage, and dropping the tail only costs
  // re-measuring the pairs whose records were lost.
  std::size_t valid_end = 0;
  std::size_t pos = 0;
  while (pos < content.size()) {
    const std::size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn final record
    if (!apply_line(content.substr(pos, nl - pos))) break;
    ++records_recovered_;
    pos = nl + 1;
    valid_end = pos;
  }
  torn_bytes_ = content.size() - valid_end;
  if (torn_bytes_ > 0) {
    TING_CHECK_MSG(::ftruncate(fd_, static_cast<off_t>(valid_end)) == 0,
                   "scan journal: cannot truncate torn tail of "
                       << path_ << ": " << std::strerror(errno));
  }
  TING_CHECK_MSG(::lseek(fd_, 0, SEEK_END) >= 0,
                 "scan journal: seek failed on " << path_ << ": "
                                                 << std::strerror(errno));
}

bool ScanJournal::apply_line(const std::string& line) {
  const std::size_t last_comma = line.find_last_of(',');
  if (last_comma == std::string::npos) return false;
  const std::string body = line.substr(0, last_comma);
  std::uint64_t crc = 0;
  if (!parse_u64_hex(line.substr(last_comma + 1), crc)) return false;
  if (crc != fnv1a64(body)) return false;

  const auto fields = split(body, ',');
  if (fields.empty()) return false;
  const std::string& type = fields[0];

  if (type == "J") {
    if (saw_meta_ || fields.size() != 4) return false;
    std::uint64_t seed = 0, nodes = 0;
    int version = 0;
    if (!parse_int(fields[1], version) || !parse_u64(fields[2], seed) ||
        !parse_u64(fields[3], nodes))
      return false;
    meta_ = Meta{version, seed, static_cast<std::size_t>(nodes)};
    saw_meta_ = true;
    return true;
  }
  if (!saw_meta_) return false;  // meta must come first

  if (type == "P") {
    if (fields.size() != 10) return false;
    PairRecord r;
    std::uint64_t bits = 0;
    std::int64_t at_ns = 0;
    int ok01 = 0, cls = 0;
    if (!parse_fp(fields[1], r.a) || !parse_fp(fields[2], r.b) ||
        !parse_int(fields[3], ok01) || !parse_int(fields[4], r.attempts) ||
        !parse_int(fields[5], cls) || !parse_u64_hex(fields[6], bits) ||
        !parse_i64(fields[7], at_ns) || !parse_int(fields[8], r.samples))
      return false;
    if ((ok01 != 0 && ok01 != 1) || cls < 0 || cls > 3 || r.a == r.b)
      return false;
    r.ok = ok01 == 1;
    r.error_class = static_cast<ErrorClass>(cls);
    r.rtt_ms = std::bit_cast<double>(bits);
    r.measured_at = TimePoint::from_ns(at_ns);
    r.error = fields[9];
    pairs_[key(r.a, r.b)] = r;
    if (r.ok) mirror_matrix_.set(r.a, r.b, r.rtt_ms, r.measured_at, r.samples);
    return true;
  }

  if (type == "H") {
    if (fields.size() != 6) return false;
    HalfRecord r;
    std::uint64_t bits = 0;
    std::int64_t at_ns = 0;
    if (!parse_fp(fields[1], r.host_w) || !parse_fp(fields[2], r.relay) ||
        !parse_u64_hex(fields[3], bits) || !parse_i64(fields[4], at_ns) ||
        !parse_int(fields[5], r.samples))
      return false;
    if (r.host_w == r.relay) return false;
    r.rtt_ms = std::bit_cast<double>(bits);
    r.measured_at = TimePoint::from_ns(at_ns);
    mirror_halves_.store(r.host_w, r.relay, r.rtt_ms, r.measured_at, r.samples);
    return true;
  }

  if (type == "Q") {
    if (fields.size() != 6) return false;
    QuarantineRecord r;
    std::int64_t at_ns = 0, until_ns = 0;
    int terminal01 = 0;
    if (!parse_fp(fields[1], r.relay) || !parse_i64(fields[2], at_ns) ||
        !parse_i64(fields[3], until_ns) || !parse_int(fields[4], r.failures) ||
        !parse_int(fields[5], terminal01))
      return false;
    if (terminal01 != 0 && terminal01 != 1) return false;
    r.at = TimePoint::from_ns(at_ns);
    r.until = TimePoint::from_ns(until_ns);
    r.terminal = terminal01 == 1;
    quarantine_records_.push_back(r);
    return true;
  }

  return false;  // unknown record type
}

std::size_t ScanJournal::ok_pairs() const {
  std::size_t n = 0;
  for (const auto& [k, r] : pairs_)
    if (r.ok) ++n;
  return n;
}

void ScanJournal::restore(RttMatrix& matrix, HalfCircuitCache* halves) const {
  const std::lock_guard<std::mutex> lock(mu_);
  matrix.merge(mirror_matrix_);
  // The journal's halves were stored after whatever `halves` was loaded
  // from, so they replace it even on an equal stamp.
  if (halves != nullptr) halves->overwrite(mirror_halves_);
}

void ScanJournal::append_line_locked(const std::string& body) {
  TING_CHECK_MSG(fd_ >= 0, "scan journal: appending after remove_file()");
  const std::string line = body + "," + hex64(fnv1a64(body)) + "\n";
  TING_CHECK_MSG(write_all(fd_, line.data(), line.size()),
                 "scan journal: write to " << path_ << " failed: "
                                           << std::strerror(errno));
  TING_CHECK_MSG(::fsync(fd_) == 0, "scan journal: fsync of "
                                        << path_ << " failed: "
                                        << std::strerror(errno));
  ++fsyncs_;
}

void ScanJournal::record_pair(const PairRecord& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  append_line_locked("P," + r.a.hex() + "," + r.b.hex() + "," +
                     (r.ok ? "1" : "0") + "," + std::to_string(r.attempts) +
                     "," + std::to_string(static_cast<int>(r.error_class)) +
                     "," + rtt_bits(r.rtt_ms) + "," +
                     std::to_string(r.measured_at.ns()) + "," +
                     std::to_string(r.samples) + "," + sanitize(r.error));
  pairs_[key(r.a, r.b)] = r;
  if (r.ok) mirror_matrix_.set(r.a, r.b, r.rtt_ms, r.measured_at, r.samples);
  ++pair_records_since_checkpoint_;
  maybe_checkpoint_locked();
}

void ScanJournal::record_half(const HalfRecord& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  append_line_locked("H," + r.host_w.hex() + "," + r.relay.hex() + "," +
                     rtt_bits(r.rtt_ms) + "," +
                     std::to_string(r.measured_at.ns()) + "," +
                     std::to_string(r.samples));
  mirror_halves_.store(r.host_w, r.relay, r.rtt_ms, r.measured_at, r.samples);
}

void ScanJournal::record_quarantine(const QuarantineRecord& r) {
  const std::lock_guard<std::mutex> lock(mu_);
  append_line_locked("Q," + r.relay.hex() + "," + std::to_string(r.at.ns()) +
                     "," + std::to_string(r.until.ns()) + "," +
                     std::to_string(r.failures) + "," +
                     (r.terminal ? "1" : "0"));
  quarantine_records_.push_back(r);
}

void ScanJournal::enable_checkpoints(std::string matrix_path,
                                     std::string halves_path,
                                     std::size_t every_pairs) {
  const std::lock_guard<std::mutex> lock(mu_);
  checkpoint_matrix_path_ = std::move(matrix_path);
  checkpoint_halves_path_ = std::move(halves_path);
  checkpoint_every_ = every_pairs;
  pair_records_since_checkpoint_ = 0;
}

void ScanJournal::maybe_checkpoint_locked() {
  if (checkpoint_every_ == 0 ||
      pair_records_since_checkpoint_ < checkpoint_every_)
    return;
  checkpoint_locked();
}

void ScanJournal::checkpoint_locked() {
  if (checkpoint_matrix_path_.empty()) return;
  atomic_write_file(checkpoint_matrix_path_, mirror_matrix_.to_csv());
  if (!checkpoint_halves_path_.empty())
    atomic_write_file(checkpoint_halves_path_, mirror_halves_.to_bin());
  pair_records_since_checkpoint_ = 0;
  ++checkpoints_written_;
}

void ScanJournal::checkpoint_now() {
  const std::lock_guard<std::mutex> lock(mu_);
  checkpoint_locked();
}

std::size_t ScanJournal::checkpoints_written() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_written_;
}

std::size_t ScanJournal::fsyncs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fsyncs_;
}

void ScanJournal::remove_file() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  ::unlink(path_.c_str());
}

}  // namespace ting::meas
