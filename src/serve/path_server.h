// PathServer — the read side of the matrix: latency-aware path-selection
// queries served concurrently with a live scan updating the data.
//
// The paper's §5 applications all *read* the all-pairs matrix: pick the
// fastest 3-hop circuit through a relay you trust, find a TIV detour for a
// slow pair, choose a circuit length whose RTT band hides you among many
// alternatives (Fig 16/17). A deployment serves those queries to many
// clients while the scan daemon keeps measuring — so the serving state must
// be readable with zero coordination.
//
// Design: all derived read structures — the dense MatrixSnapshot, the
// DetourIndex, per-relay neighbor lists sorted by RTT, and per-length
// band-candidate tables (the circuit-selection literature's sampled
// candidate sets) — are bundled into one immutable ServingState. Only the
// snapshot holds RTTs; the index and the neighbor lists hold node indices
// and read every value back off it. The writer
// (daemon checkpoint hook, or anyone calling publish()) builds the next
// state off to the side and installs it with a single atomic shared_ptr
// swap. Readers load the pointer once per query and run entirely against
// that state: no locks, no torn reads, and a reader holding an old state
// keeps it alive until it finishes (shared_ptr refcount), so publication
// never invalidates an in-flight query.
//
// Staleness bound: a query sees at worst the state published at the last
// completed daemon epoch, i.e. data at most one epoch interval plus one
// publish older than the matrix on disk (PROTOCOL.md "Serving the matrix").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dir/fingerprint.h"
#include "serve/detour_index.h"
#include "serve/snapshot.h"
#include "ting/rtt_matrix.h"
#include "util/time.h"

namespace ting::serve {

struct ServeOptions {
  /// Longest circuit length with a candidate table. Tables cover lengths 3
  /// through min(max_length, n) for an n-relay snapshot.
  std::size_t max_length = 6;
  /// Circuits sampled per length when building a table. Tables are samples,
  /// not enumerations — C(n, ℓ) is astronomically larger than any table.
  std::size_t candidates_per_length = 2000;
  /// Seed for the deterministic candidate sampling.
  std::uint64_t seed = 1;
};

/// One sampled circuit, as node indices into the owning snapshot.
struct ServedCircuit {
  std::vector<std::uint32_t> path;
  double rtt_ms = 0;
};

/// Sampled circuits of one length, sorted by RTT — band queries are a
/// binary search, and the in-band fraction scales to the C(n, ℓ) population
/// exactly like analysis::circuit_options_in_band.
struct CandidateTable {
  std::size_t length = 0;
  std::size_t sampled = 0;  ///< draws attempted (valid + incomplete)
  std::vector<ServedCircuit> circuits;  ///< complete circuits, RTT-ascending
};

/// Per relay, every measured neighbor's node index, sorted by (rtt, index)
/// with the RTTs read off the snapshot — fastest-k enumeration walks a row
/// from the front. One flat array: row r is ids[offsets[r], offsets[r + 1]).
struct NeighborLists {
  std::vector<std::uint32_t> ids;
  std::vector<std::size_t> offsets;  ///< n + 1 entries

  std::span<const std::uint32_t> row(std::size_t r) const {
    return {ids.data() + offsets[r], offsets[r + 1] - offsets[r]};
  }
  std::size_t memory_bytes() const;
};

/// Everything a query needs, immutable once published.
struct ServingState {
  MatrixSnapshot snapshot;
  DetourIndex detours;
  NeighborLists neighbors;
  std::vector<CandidateTable> tables;  ///< index: length − 3

  /// The table for `length`, or nullptr when none was built for it.
  const CandidateTable* table_for(std::size_t length) const;
  /// Heap bytes of the snapshot, the detour index, the neighbor lists and
  /// the candidate tables.
  std::size_t memory_bytes() const;
};

class PathServer {
 public:
  explicit PathServer(ServeOptions options = {});

  // ---- writer side ---------------------------------------------------------

  /// Build the derived structures for `snapshot` and atomically publish
  /// them. `changed` names relays whose matrix entries may differ from the
  /// previously published snapshot; when the node set is unchanged and the
  /// set is small, the detour index is patched in O(|changed|·n²) instead
  /// of rebuilt. Pass empty to force a full rebuild.
  void publish(MatrixSnapshot snapshot,
               const std::vector<dir::Fingerprint>& changed = {});
  /// Snapshot `matrix` and publish it.
  void publish(const meas::RttMatrix& matrix, std::uint64_t epoch = 0,
               TimePoint stamp = {},
               const std::vector<dir::Fingerprint>& changed = {});

  // ---- reader side (all lock-free: one atomic load, then plain reads) ------

  /// The current state, or nullptr before the first publish. Hold the
  /// returned pointer for the duration of a multi-step query so every step
  /// sees the same snapshot.
  std::shared_ptr<const ServingState> state() const {
    return state_.load(std::memory_order_acquire);
  }
  bool ready() const { return state() != nullptr; }

  /// A query answer with resolved fingerprints.
  struct Circuit {
    std::vector<dir::Fingerprint> relays;
    double rtt_ms = 0;
  };
  struct DetourRoute {
    dir::Fingerprint via;
    std::optional<double> direct_ms;  ///< nullopt: pair itself unmeasured
    double detour_ms = 0;
    bool tiv = false;  ///< detour beats a measured direct path
  };

  /// Direct RTT for a pair (nullopt: unknown relay or unmeasured pair).
  std::optional<double> rtt(const dir::Fingerprint& a,
                            const dir::Fingerprint& b) const;
  /// Best via-relay for a pair — O(1) against the detour index. Answers
  /// even when the direct pair is unmeasured (the detour then *is* the
  /// serving-layer estimate for the pair, ShorTor-style).
  std::optional<DetourRoute> best_detour(const dir::Fingerprint& a,
                                         const dir::Fingerprint& b) const;
  /// The k fastest 3-hop circuits with `relay` as the middle hop.
  std::vector<Circuit> fastest_through(const dir::Fingerprint& relay,
                                       std::size_t k) const;
  /// Up to `want` sampled circuits of `length` with RTT in [lo, hi].
  std::vector<Circuit> circuits_in_band(std::size_t length, double lo_ms,
                                        double hi_ms,
                                        std::size_t want) const;
  /// Estimated number of distinct circuits of `length` in the band, scaled
  /// from the candidate table to the full C(n, length) population.
  double options_in_band(std::size_t length, double lo_ms, double hi_ms) const;

  /// Lifetime publish count (writer-side metric).
  std::uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }
  const ServeOptions& options() const { return options_; }

 private:
  ServeOptions options_;
  std::atomic<std::shared_ptr<const ServingState>> state_{nullptr};
  std::atomic<std::uint64_t> publishes_{0};
};

}  // namespace ting::serve
