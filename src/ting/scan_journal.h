// ScanJournal — the append-only write-ahead log that makes an all-pairs
// scan crash-safe and resumable.
//
// A full Ting scan of the Tor network takes days to weeks of wall-clock
// time (§5); losing it to a process crash is not acceptable. The journal
// records one fsync'd line per terminally-resolved pair (succeeded or
// exhausted its attempts) and per half-circuit measurement, so after a
// crash `ting scan --resume` replays the journal, rebuilds the matrix and
// half-circuit cache exactly as they were, and re-measures only the pairs
// that never completed. In deterministic mode every pair's estimate
// is a pure function of (world seed, pair_seed, x, y), so the resumed scan
// produces a matrix bit-identical to an uninterrupted run.
//
// Record format (one CSV line per record, trailing FNV-1a-64 checksum):
//
//   J,<version>,<pair_seed>,<nodes>,<crc>            scan metadata (first line)
//   P,<fp_a>,<fp_b>,<ok>,<attempts>,<class>,<rtt_bits>,<at_ns>,<samples>,<err>,<crc>
//   H,<host_fp>,<relay_fp>,<rtt_bits>,<at_ns>,<samples>,<crc>
//   Q,<relay_fp>,<at_ns>,<until_ns>,<failures>,<terminal>,<crc>
//
// <rtt_bits> is the IEEE-754 bit pattern of the double, as 16 hex digits:
// the CSV artifacts print RTTs at the default 6-significant-digit
// precision, so round-tripping estimates through decimal would break the
// bit-identity guarantee; the journal preserves exact bits. <err> is the
// failure message with ','/'\n' replaced (the line stays one CSV row).
//
// Recovery tolerates a torn tail — the expected crash artifact of an
// append-only log. On open-for-resume, everything from the first
// incomplete or checksum-corrupt record to EOF is dropped and the file is
// truncated back to the last valid prefix; the scan re-measures the pairs
// whose records were lost.
//
// The journal also owns the periodic checkpointing of the matrix and
// half-circuit cache: it keeps an internal mirror of both, fed by the
// records as they are appended, and every `every_pairs` pair records it
// atomically rewrites the artifact files (util/atomic_file), so even a
// reader that ignores the journal sees a recent consistent snapshot.
//
// Thread-safe: the scan engine's per-world threads append through one
// shared journal; a mutex serialises appends, mirror updates, and
// checkpoint writes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "dir/fingerprint.h"
#include "ting/half_circuit_cache.h"
#include "ting/measurer.h"
#include "ting/rtt_matrix.h"
#include "util/time.h"

namespace ting::meas {

class ScanJournal {
 public:
  struct Meta {
    int version = 1;
    std::uint64_t pair_seed = 0;
    std::size_t nodes = 0;  ///< scan-node count, a cheap same-scan check
  };

  /// One terminally-resolved pair (measured, or failed for good this run).
  struct PairRecord {
    dir::Fingerprint a, b;
    bool ok = false;
    int attempts = 1;  ///< attempts consumed (1 = first try resolved it)
    ErrorClass error_class = ErrorClass::kNone;
    double rtt_ms = 0;       ///< estimate (ok records only)
    TimePoint measured_at;   ///< matrix timestamp (zero in deterministic mode)
    int samples = 0;
    std::string error;  ///< final failure message (sanitized on write)
  };

  /// One stored half-circuit minimum (mirrors HalfCircuitCache::store).
  struct HalfRecord {
    dir::Fingerprint host_w, relay;
    double rtt_ms = 0;
    TimePoint measured_at;
    int samples = 0;
  };

  /// One quarantine transition (annotation; not replayed into engine state —
  /// a resumed scan re-probes and a still-sick relay re-trips immediately).
  struct QuarantineRecord {
    dir::Fingerprint relay;
    TimePoint at, until;
    int failures = 0;
    bool terminal = false;
  };

  enum class Mode {
    kFresh,   ///< truncate any existing journal and start over
    kResume,  ///< replay existing records (recovering a torn tail) and append
  };

  /// Opens (creating if needed) the journal at `path`. In kResume mode the
  /// existing records are replayed first and `meta` is validated against the
  /// journal's own metadata line — resuming against a journal written by a
  /// different scan (seed or node-count mismatch) throws. Throws CheckError
  /// on I/O errors.
  ScanJournal(std::string path, Mode mode, Meta meta);
  ~ScanJournal();
  ScanJournal(const ScanJournal&) = delete;
  ScanJournal& operator=(const ScanJournal&) = delete;

  const std::string& path() const { return path_; }
  const Meta& meta() const { return meta_; }

  // ---- recovered state (populated by kResume; empty after kFresh) ----------
  using PairKey = std::pair<dir::Fingerprint, dir::Fingerprint>;
  const std::map<PairKey, PairRecord>& pairs() const { return pairs_; }
  const std::vector<QuarantineRecord>& quarantine_records() const {
    return quarantine_records_;
  }
  std::size_t ok_pairs() const;
  /// Bytes dropped from the tail at open (0 = the journal was clean).
  std::size_t torn_bytes() const { return torn_bytes_; }
  std::size_t records_recovered() const { return records_recovered_; }

  /// Seed `matrix` (and `halves`, if non-null) from the recovered records —
  /// the resume path's way of rebuilding scan state with exact bit patterns.
  /// Recovered halves replace the entries `halves` already holds.
  void restore(RttMatrix& matrix, HalfCircuitCache* halves) const;

  // ---- appends (thread-safe; one fsync per record) -------------------------
  void record_pair(const PairRecord& r);
  void record_half(const HalfRecord& r);
  void record_quarantine(const QuarantineRecord& r);

  // ---- periodic atomic checkpoints -----------------------------------------
  /// Every `every_pairs` pair records, atomically rewrite the matrix as CSV
  /// (and, if `halves_path` is non-empty, the half-circuit cache as
  /// TINGHCX1) from the journal's mirrors. Pass every_pairs = 0 to disable
  /// cadence-based checkpoints (checkpoint_now still works).
  void enable_checkpoints(std::string matrix_path, std::string halves_path,
                          std::size_t every_pairs);
  /// Write a checkpoint immediately (graceful-shutdown flush).
  void checkpoint_now();
  std::size_t checkpoints_written() const;

  /// Observability: fsync(2) calls issued so far (for the overhead bench).
  std::size_t fsyncs() const;

  /// Close and delete the journal file — the scan completed cleanly, so the
  /// artifacts alone carry the state. Further appends are invalid.
  void remove_file();

 private:
  static PairKey key(const dir::Fingerprint& a, const dir::Fingerprint& b) {
    return a < b ? PairKey{a, b} : PairKey{b, a};
  }
  void replay_existing();
  /// Parse one checksummed line into the mirrors; false = corrupt.
  bool apply_line(const std::string& line);
  void append_line_locked(const std::string& body);
  void maybe_checkpoint_locked();
  void checkpoint_locked();

  std::string path_;
  int fd_ = -1;
  Meta meta_;
  bool saw_meta_ = false;

  mutable std::mutex mu_;
  std::map<PairKey, PairRecord> pairs_;
  std::vector<QuarantineRecord> quarantine_records_;
  RttMatrix mirror_matrix_;
  HalfCircuitCache mirror_halves_;
  std::size_t torn_bytes_ = 0;
  std::size_t records_recovered_ = 0;
  std::size_t fsyncs_ = 0;

  std::string checkpoint_matrix_path_;
  std::string checkpoint_halves_path_;
  std::size_t checkpoint_every_ = 0;
  std::size_t pair_records_since_checkpoint_ = 0;
  std::size_t checkpoints_written_ = 0;
};

}  // namespace ting::meas
