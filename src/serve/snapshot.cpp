#include "serve/snapshot.h"

#include <limits>

namespace ting::serve {

void MatrixSnapshot::index_nodes(std::vector<dir::Fingerprint> nodes) {
  nodes_ = std::move(nodes);  // RttMatrix::nodes() is sorted
  index_.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i)
    index_.emplace(nodes_[i], static_cast<std::uint32_t>(i));
  // Exactly one flat array is ever populated; the other stays empty.
  if (storage_ == SnapshotStorage::kFloat32)
    rtt32_.assign(nodes_.size() * nodes_.size(),
                  std::numeric_limits<float>::quiet_NaN());
  else
    rtt_.assign(nodes_.size() * nodes_.size(),
                std::numeric_limits<double>::quiet_NaN());
}

void MatrixSnapshot::set_pair(std::size_t i, std::size_t j, double rtt_ms) {
  const std::size_t ij = i * nodes_.size() + j;
  const std::size_t ji = j * nodes_.size() + i;
  if (storage_ == SnapshotStorage::kFloat32) {
    const float narrow = static_cast<float>(rtt_ms);
    rtt32_[ij] = narrow;
    rtt32_[ji] = narrow;
  } else {
    rtt_[ij] = rtt_ms;
    rtt_[ji] = rtt_ms;
  }
  ++pair_count_;
}

MatrixSnapshot MatrixSnapshot::build(const meas::RttMatrix& matrix,
                                     std::uint64_t epoch, TimePoint stamp,
                                     SnapshotStorage storage) {
  MatrixSnapshot s;
  s.epoch_ = epoch;
  s.stamp_ = stamp;
  s.storage_ = storage;
  s.index_nodes(matrix.nodes());
  matrix.for_each_pair(s.nodes_, [&s](std::size_t i, std::size_t j,
                                      const meas::RttMatrix::Entry& e) {
    s.set_pair(i, j, e.rtt_ms);
  });
  return s;
}

std::size_t MatrixSnapshot::memory_bytes() const {
  std::size_t bytes = rtt_.capacity() * sizeof(double) +
                      rtt32_.capacity() * sizeof(float) +
                      nodes_.capacity() * sizeof(dir::Fingerprint);
  // Hash-map estimate mirrors RttMatrix::memory_bytes: per-node
  // payload + two list pointers, plus the bucket array.
  bytes += index_.size() *
           (sizeof(std::pair<const dir::Fingerprint, std::uint32_t>) +
            2 * sizeof(void*));
  bytes += index_.bucket_count() * sizeof(void*);
  return bytes;
}

std::optional<double> MatrixSnapshot::rtt(const dir::Fingerprint& a,
                                          const dir::Fingerprint& b) const {
  const auto i = index_of(a);
  const auto j = index_of(b);
  if (!i.has_value() || !j.has_value()) return std::nullopt;
  return rtt(*i, *j);
}

std::optional<double> MatrixSnapshot::path_rtt_ms(
    const std::vector<std::size_t>& path) const {
  if (path.size() < 2) return std::nullopt;
  double total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const double r = rtt_raw(path[i], path[i + 1]);
    if (std::isnan(r)) return std::nullopt;
    total += r;
  }
  return total;
}

double MatrixSnapshot::coverage() const {
  const std::size_t n = nodes_.size();
  const std::size_t total = n * (n - 1) / 2;
  if (total == 0) return 1.0;
  return static_cast<double>(pair_count_) / static_cast<double>(total);
}

}  // namespace ting::serve
