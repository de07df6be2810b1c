#include "serve/path_server.h"

#include <algorithm>
#include <queue>
#include <set>

#include "util/rng.h"

namespace ting::serve {

namespace {

/// C(n, k) at double precision (a local copy: serve must not depend on
/// analysis, which itself builds on this library).
double choose(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  double result = 1;
  for (std::size_t i = 0; i < k; ++i)
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  return result;
}

std::vector<std::vector<std::pair<double, std::uint32_t>>> build_neighbors(
    const MatrixSnapshot& snapshot) {
  const std::size_t n = snapshot.node_count();
  std::vector<std::vector<std::pair<double, std::uint32_t>>> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    auto& list = out[r];
    for (std::size_t x = 0; x < n; ++x) {
      if (x == r) continue;
      const double rtt = snapshot.rtt_raw(r, x);
      if (!std::isnan(rtt)) list.emplace_back(rtt, static_cast<std::uint32_t>(x));
    }
    std::sort(list.begin(), list.end());
  }
  return out;
}

std::vector<CandidateTable> build_tables(const MatrixSnapshot& snapshot,
                                         const ServeOptions& options) {
  std::vector<CandidateTable> tables;
  const std::size_t n = snapshot.node_count();
  for (std::size_t len = options.min_length; len <= options.max_length;
       ++len) {
    CandidateTable table;
    table.length = len;
    if (len >= 2 && len <= n) {
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
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

const CandidateTable* ServingState::table_for(std::size_t length) const {
  for (const CandidateTable& t : tables)
    if (t.length == length) return &t;
  return nullptr;
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
        options_.full_rebuild_fraction *
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
  const SnapshotStorage storage = options_.float32_snapshot
                                      ? SnapshotStorage::kFloat32
                                      : SnapshotStorage::kFloat64;
  publish(MatrixSnapshot::build(matrix, epoch, stamp, storage), changed);
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
  const DetourIndex::Detour& d = st->detours.at(*i, *j);
  if (d.via == DetourIndex::kNone) return std::nullopt;
  DetourRoute route;
  route.via = st->snapshot.node(static_cast<std::size_t>(d.via));
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
  const auto& neigh = st->neighbors[*r];
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
    heap.push(Node{neigh[ia].first + neigh[ib].first, ia, ib});
  };
  push(0, 1);
  while (!heap.empty() && out.size() < k) {
    const Node top = heap.top();
    heap.pop();
    Circuit c;
    c.relays = {st->snapshot.node(neigh[top.ia].second), relay,
                st->snapshot.node(neigh[top.ib].second)};
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
         choose(st->snapshot.node_count(), length);
}

}  // namespace ting::serve
