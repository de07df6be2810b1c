#include "serve/path_server.h"

#include <algorithm>
#include <queue>
#include <set>

#include "util/rng.h"
#include "util/stats.h"

namespace ting::serve {

namespace {

/// Shortest circuit length with a candidate table.
constexpr std::size_t kMinLength = 3;
/// Patch the detour index incrementally only while the changed-relay set
/// stays below this fraction of the snapshot; above it a full O(n³) rebuild
/// is cheaper than |changed|·n² patching.
constexpr double kFullRebuildFraction = 0.5;

NeighborLists build_neighbors(const MatrixSnapshot& snapshot) {
  const std::size_t n = snapshot.node_count();
  NeighborLists out;
  out.ids.reserve(2 * snapshot.pair_count());  // each pair lists both ends
  out.offsets.reserve(n + 1);
  out.offsets.push_back(0);
  std::vector<std::pair<double, std::uint32_t>> sorted;  // one row's
  sorted.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    // The NaN diagonal keeps r out of its own row.
    const std::span<const double> row = snapshot.row(r);
    sorted.clear();
    for (std::size_t x = 0; x < n; ++x)
      if (!std::isnan(row[x]))
        sorted.emplace_back(row[x], static_cast<std::uint32_t>(x));
    std::sort(sorted.begin(), sorted.end());
    for (const auto& [rtt, x] : sorted) out.ids.push_back(x);
    out.offsets.push_back(out.ids.size());
  }
  return out;
}

std::vector<CandidateTable> build_tables(const MatrixSnapshot& snapshot,
                                         const ServeOptions& options) {
  std::vector<CandidateTable> tables;
  const std::size_t n = snapshot.node_count();
  // A circuit has distinct relays, so no length above n has a table.
  for (std::size_t len = kMinLength; len <= std::min(options.max_length, n);
       ++len) {
    CandidateTable table;
    table.length = len;
    // Deterministic per-length stream: rebuilding the same snapshot with
    // the same options yields byte-identical tables.
    Rng rng(mix64(options.seed ^ mix64(static_cast<std::uint64_t>(len))));
    table.sampled = options.candidates_per_length;
    for (std::size_t i = 0; i < table.sampled; ++i) {
      std::vector<std::size_t> path = rng.sample_indices(n, len);
      const auto rtt = snapshot.path_rtt_ms(path);
      if (!rtt.has_value()) continue;  // incomplete: unmeasured hop
      ServedCircuit c;
      c.rtt_ms = *rtt;
      c.path.reserve(len);
      for (std::size_t idx : path)
        c.path.push_back(static_cast<std::uint32_t>(idx));
      table.circuits.push_back(std::move(c));
    }
    std::sort(table.circuits.begin(), table.circuits.end(),
              [](const ServedCircuit& a, const ServedCircuit& b) {
                return a.rtt_ms != b.rtt_ms ? a.rtt_ms < b.rtt_ms
                                            : a.path < b.path;
              });
    // Drop exact duplicate draws so band answers are distinct circuits.
    table.circuits.erase(
        std::unique(table.circuits.begin(), table.circuits.end(),
                    [](const ServedCircuit& a, const ServedCircuit& b) {
                      return a.path == b.path;
                    }),
        table.circuits.end());
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

std::size_t NeighborLists::memory_bytes() const {
  return ids.capacity() * sizeof(std::uint32_t) +
         offsets.capacity() * sizeof(std::size_t);
}

const CandidateTable* ServingState::table_for(std::size_t length) const {
  if (length < kMinLength || length - kMinLength >= tables.size())
    return nullptr;
  return &tables[length - kMinLength];
}

std::size_t ServingState::memory_bytes() const {
  std::size_t bytes = snapshot.memory_bytes() + detours.memory_bytes() +
                      neighbors.memory_bytes() +
                      tables.capacity() * sizeof(CandidateTable);
  for (const CandidateTable& t : tables) {
    bytes += t.circuits.capacity() * sizeof(ServedCircuit);
    for (const ServedCircuit& c : t.circuits)
      bytes += c.path.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

PathServer::PathServer(ServeOptions options) : options_(options) {}

void PathServer::publish(MatrixSnapshot snapshot,
                         const std::vector<dir::Fingerprint>& changed) {
  auto next = std::make_shared<ServingState>();
  next->snapshot = std::move(snapshot);
  const std::shared_ptr<const ServingState> prev =
      state_.load(std::memory_order_acquire);

  // Patch the detour index incrementally when the node set is stable and
  // the change set is small; otherwise rebuild. Correctness never depends
  // on this choice — update() recomputes affected pairs from scratch.
  bool incremental = prev != nullptr && !changed.empty() &&
                     prev->snapshot.nodes() == next->snapshot.nodes();
  std::vector<std::size_t> changed_indices;
  if (incremental) {
    for (const dir::Fingerprint& fp : changed)
      if (const auto i = next->snapshot.index_of(fp); i.has_value())
        changed_indices.push_back(*i);
    incremental =
        static_cast<double>(changed_indices.size()) <
        kFullRebuildFraction *
            static_cast<double>(next->snapshot.node_count());
  }
  if (incremental) {
    next->detours = prev->detours;
    next->detours.update(next->snapshot, changed_indices);
  } else {
    next->detours = DetourIndex::build(next->snapshot);
  }

  next->neighbors = build_neighbors(next->snapshot);
  next->tables = build_tables(next->snapshot, options_);

  // The swap: readers loading before this see the previous complete state,
  // readers loading after see this one; either way a fully built image.
  state_.store(std::move(next), std::memory_order_release);
  publishes_.fetch_add(1, std::memory_order_relaxed);
}

void PathServer::publish(const meas::RttMatrix& matrix, std::uint64_t epoch,
                         TimePoint stamp,
                         const std::vector<dir::Fingerprint>& changed) {
  publish(MatrixSnapshot::build(matrix, epoch, stamp), changed);
}

std::optional<double> PathServer::rtt(const dir::Fingerprint& a,
                                      const dir::Fingerprint& b) const {
  const auto st = state();
  if (st == nullptr) return std::nullopt;
  return st->snapshot.rtt(a, b);
}

std::optional<PathServer::DetourRoute> PathServer::best_detour(
    const dir::Fingerprint& a, const dir::Fingerprint& b) const {
  const auto st = state();
  if (st == nullptr) return std::nullopt;
  const auto i = st->snapshot.index_of(a);
  const auto j = st->snapshot.index_of(b);
  if (!i.has_value() || !j.has_value() || *i == *j) return std::nullopt;
  const DetourIndex::Detour d = st->detours.at(st->snapshot, *i, *j);
  if (d.via == DetourIndex::kNone) return std::nullopt;
  DetourRoute route;
  route.via = st->snapshot.node(d.via);
  route.direct_ms = st->snapshot.rtt(*i, *j);
  route.detour_ms = d.detour_ms;
  route.tiv = d.tiv;
  return route;
}

std::vector<PathServer::Circuit> PathServer::fastest_through(
    const dir::Fingerprint& relay, std::size_t k) const {
  std::vector<Circuit> out;
  const auto st = state();
  if (st == nullptr || k == 0) return out;
  const auto r = st->snapshot.index_of(relay);
  if (!r.has_value()) return out;
  const std::span<const std::uint32_t> neigh = st->neighbors.row(*r);
  const std::span<const double> rtt = st->snapshot.row(*r);
  const std::size_t m = neigh.size();
  if (m < 2) return out;

  // k smallest sums over pairs (ia < ib) of the RTT-sorted neighbor list:
  // frontier heap seeded at (0, 1); successors (ia, ib+1) and (ia+1, ib).
  struct Node {
    double sum;
    std::size_t ia, ib;
    bool operator>(const Node& o) const { return sum > o.sum; }
  };
  std::priority_queue<Node, std::vector<Node>, std::greater<Node>> heap;
  std::set<std::pair<std::size_t, std::size_t>> seen;
  const auto push = [&](std::size_t ia, std::size_t ib) {
    if (ib >= m || ia >= ib) return;
    if (!seen.emplace(ia, ib).second) return;
    heap.push(Node{rtt[neigh[ia]] + rtt[neigh[ib]], ia, ib});
  };
  push(0, 1);
  while (!heap.empty() && out.size() < k) {
    const Node top = heap.top();
    heap.pop();
    Circuit c;
    c.relays = {st->snapshot.node(neigh[top.ia]), relay,
                st->snapshot.node(neigh[top.ib])};
    c.rtt_ms = top.sum;
    out.push_back(std::move(c));
    push(top.ia, top.ib + 1);
    push(top.ia + 1, top.ib);
  }
  return out;
}

std::vector<PathServer::Circuit> PathServer::circuits_in_band(
    std::size_t length, double lo_ms, double hi_ms, std::size_t want) const {
  std::vector<Circuit> out;
  const auto st = state();
  if (st == nullptr) return out;
  const CandidateTable* table = st->table_for(length);
  if (table == nullptr) return out;
  auto it = std::lower_bound(table->circuits.begin(), table->circuits.end(),
                             lo_ms, [](const ServedCircuit& c, double v) {
                               return c.rtt_ms < v;
                             });
  for (; it != table->circuits.end() && it->rtt_ms <= hi_ms &&
         out.size() < want;
       ++it) {
    Circuit c;
    c.rtt_ms = it->rtt_ms;
    c.relays.reserve(it->path.size());
    for (std::uint32_t idx : it->path)
      c.relays.push_back(st->snapshot.node(idx));
    out.push_back(std::move(c));
  }
  return out;
}

double PathServer::options_in_band(std::size_t length, double lo_ms,
                                   double hi_ms) const {
  const auto st = state();
  if (st == nullptr) return 0;
  const CandidateTable* table = st->table_for(length);
  if (table == nullptr || table->sampled == 0) return 0;
  const auto lo = std::lower_bound(
      table->circuits.begin(), table->circuits.end(), lo_ms,
      [](const ServedCircuit& c, double v) { return c.rtt_ms < v; });
  const auto hi = std::upper_bound(
      table->circuits.begin(), table->circuits.end(), hi_ms,
      [](double v, const ServedCircuit& c) { return v < c.rtt_ms; });
  const auto in_band = static_cast<double>(std::distance(lo, hi));
  return in_band / static_cast<double>(table->sampled) *
         n_choose_k(st->snapshot.node_count(), length);
}

}  // namespace ting::serve
