#include "serve/detour_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/assert.h"

namespace ting::serve {

namespace {

// The min-plus kernel's vector: two doubles. GCC lowers 16-byte double
// vectors to addpd/minpd (SSE2, part of x86-64) with no -march; at the
// default flags it scalarizes the compare-select of wider ones.
using Lanes = double __attribute__((vector_size(16)));
constexpr std::size_t kLanes = sizeof(Lanes) / sizeof(double);
/// k values per running-minimum step. A pair remembers only the first chunk
/// that reached its minimum, so resolving its via rescans ≤ kChunk sums.
constexpr std::size_t kChunk = 64;
constexpr std::size_t kNoChunk = static_cast<std::size_t>(-1);
/// Register tile: pairs (i, j) for kTileI rows i × kTileJ rows j, so each
/// loaded chunk of a row feeds several sums.
constexpr std::size_t kTileI = 2;
constexpr std::size_t kTileJ = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();

Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
/// float32 images widen each value to double before the add, exactly as
/// MatrixSnapshot::rtt_raw does (NaN stays NaN).
Lanes load(const float* p) {
  using Narrow = float __attribute__((vector_size(8)));
  Narrow v;
  std::memcpy(&v, p, sizeof v);
  return __builtin_convertvector(v, Lanes);
}

/// One pair's sweep state: the smallest detour sum so far and the first
/// chunk that reached it.
struct Running {
  double best = kInf;
  std::size_t chunk = kNoChunk;
};

/// Sweep every k for the TI × kTileJ pairs (ri[a], rj[b]). A sum is
/// ri[a][k] + rj[b][k]: the snapshot is symmetric, so R(k, j) is row j's
/// k-th value, and its NaN diagonal makes the sums at k = i and k = j lose
/// every comparison, as unmeasured legs do. Kept out of line so its hot
/// loop is register-allocated on its own: inlined into the sweep, GCC
/// spilled the row pointers and reloaded them every step.
template <std::size_t TI, typename T>
[[gnu::noinline]] void min_plus_tile(const T* const (&ri)[TI],
                                     const T* const (&rj)[kTileJ],
                                     std::size_t n,
                                     Running (&run)[TI][kTileJ]) {
  for (std::size_t c0 = 0; c0 < n; c0 += kChunk) {
    const std::size_t c1 = std::min(n, c0 + kChunk);
    Lanes acc[TI][kTileJ];
    for (auto& row : acc)
      for (Lanes& a : row) a = Lanes{kInf, kInf};
    std::size_t k = c0;
    for (; k + kLanes <= c1; k += kLanes) {
      Lanes x[TI], y[kTileJ];
#pragma GCC unroll 4
      for (std::size_t a = 0; a < TI; ++a) x[a] = load(ri[a] + k);
#pragma GCC unroll 4
      for (std::size_t b = 0; b < kTileJ; ++b) y[b] = load(rj[b] + k);
#pragma GCC unroll 4
      for (std::size_t a = 0; a < TI; ++a)
#pragma GCC unroll 4
        for (std::size_t b = 0; b < kTileJ; ++b) {
          const Lanes sum = x[a] + y[b];
          acc[a][b] = sum < acc[a][b] ? sum : acc[a][b];
        }
    }
    for (std::size_t a = 0; a < TI; ++a)
      for (std::size_t b = 0; b < kTileJ; ++b) {
        double m = acc[a][b][1] < acc[a][b][0] ? acc[a][b][1] : acc[a][b][0];
        if (k < c1) {  // odd chunk tail
          const double sum = static_cast<double>(ri[a][k]) +
                             static_cast<double>(rj[b][k]);
          if (sum < m) m = sum;
        }
        // Strictly below: a later chunk that only ties keeps the earlier.
        if (m < run[a][b].best) run[a][b] = Running{m, c0};
      }
  }
}

/// The pair's entry once its sweep is done: via is the first k in the best
/// chunk whose sum equals the minimum, and detour_ms that k's sum. A
/// k-ascending strict-less scan picks the same k (lowest index on ties) and
/// so the same bits, even where equal sums differ in the sign of zero.
template <typename T>
DetourIndex::Detour resolve(const T* ri, const T* rj, std::size_t n,
                            std::size_t j, const Running& run) {
  DetourIndex::Detour d;
  if (run.chunk != kNoChunk) {
    const std::size_t end = std::min(n, run.chunk + kChunk);
    for (std::size_t k = run.chunk; k < end; ++k) {
      const double sum =
          static_cast<double>(ri[k]) + static_cast<double>(rj[k]);
      if (sum == run.best) {
        d.via = static_cast<std::int32_t>(k);
        d.detour_ms = sum;
        break;
      }
    }
  }
  const double direct = static_cast<double>(ri[j]);
  d.measured = !std::isnan(direct);
  d.tiv = d.measured && d.detour_ms < direct;
  return d;
}

/// Every pair (is[a], js[b]) through the kernel, in tiles of TI rows ×
/// kTileJ columns, each handed to emit(i, j, detour). A short last tile
/// repeats its last column; the repeat re-emits the same entry.
template <std::size_t TI, typename T, typename Emit>
void sweep_rows(const MatrixSnapshot& snapshot, const std::size_t (&is)[TI],
                const std::vector<std::size_t>& js, Emit& emit) {
  const std::size_t n = snapshot.node_count();
  const auto row = [&](std::size_t r) { return snapshot.row<T>(r).data(); };
  const T* ri[TI];
  for (std::size_t a = 0; a < TI; ++a) ri[a] = row(is[a]);
  for (std::size_t b0 = 0; b0 < js.size(); b0 += kTileJ) {
    std::size_t cols[kTileJ];
    const T* rj[kTileJ];
    for (std::size_t b = 0; b < kTileJ; ++b)
      rj[b] = row(cols[b] = js[std::min(b0 + b, js.size() - 1)]);
    Running run[TI][kTileJ];
    min_plus_tile(ri, rj, n, run);
    for (std::size_t b = 0; b < kTileJ; ++b)
      for (std::size_t a = 0; a < TI; ++a)
        emit(is[a], cols[b], resolve(ri[a], rj[b], n, cols[b], run[a][b]));
  }
}

/// Call f.template operator()<T>() with T the snapshot's element type.
template <typename F>
void with_storage(const MatrixSnapshot& snapshot, F&& f) {
  if (snapshot.storage() == SnapshotStorage::kFloat32)
    f.template operator()<float>();
  else
    f.template operator()<double>();
}

}  // namespace

void DetourIndex::assign(std::size_t i, std::size_t j, const Detour& d) {
  Detour& slot = best_[tri(i, j)];
  measured_pairs_ -= slot.measured ? 1 : 0;
  tiv_pairs_ -= slot.tiv ? 1 : 0;
  slot = d;
  measured_pairs_ += slot.measured ? 1 : 0;
  tiv_pairs_ += slot.tiv ? 1 : 0;
}

DetourIndex DetourIndex::build(const MatrixSnapshot& snapshot) {
  DetourIndex idx;
  const std::size_t n = idx.n_ = snapshot.node_count();
  idx.best_.assign(n * (n - 1) / 2, Detour{});
  const auto emit = [&idx](std::size_t i, std::size_t j, const Detour& d) {
    idx.assign(i, j, d);
  };
  // Rows i and i+1 against every j > i+1 in two-row tiles, and the pair
  // (i, i+1) on its own.
  with_storage(snapshot, [&]<typename T>() {
    std::vector<std::size_t> js;
    js.reserve(n);
    for (std::size_t i = 0; i + 1 < n; i += kTileI) {
      js.assign(1, i + 1);
      sweep_rows<1, T>(snapshot, {i}, js, emit);
      js.clear();
      for (std::size_t j = i + 2; j < n; ++j) js.push_back(j);
      sweep_rows<kTileI, T>(snapshot, {i, i + 1}, js, emit);
    }
  });
  return idx;
}

void DetourIndex::update(const MatrixSnapshot& snapshot,
                         const std::vector<std::size_t>& changed) {
  TING_CHECK_MSG(snapshot.node_count() == n_,
                 "DetourIndex::update needs a snapshot with the node set the "
                 "index was built from");
  // Dedupe and recompute each incident pair exactly once: a pair between
  // two changed relays is swept from its lower end only.
  std::vector<bool> is_changed(n_, false);
  for (std::size_t r : changed) {
    TING_CHECK(r < n_);
    is_changed[r] = true;
  }
  const auto emit = [this](std::size_t i, std::size_t j, const Detour& d) {
    assign(i, j, d);
  };
  with_storage(snapshot, [&]<typename T>() {
    std::vector<std::size_t> js;
    js.reserve(n_);
    for (std::size_t r = 0; r < n_; ++r) {
      if (!is_changed[r]) continue;
      js.clear();
      for (std::size_t x = 0; x < n_; ++x)
        if (x != r && !(is_changed[x] && x < r)) js.push_back(x);
      sweep_rows<1, T>(snapshot, {r}, js, emit);
    }
  });
}

}  // namespace ting::serve
