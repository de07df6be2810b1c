#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, std::int64_t id,
                std::string tag) {
  if (!enabled_) return -1;
  spans_.push_back(
      Span{std::move(name), id, std::move(tag), parent, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

int Tracer::open(std::string name, int parent, std::int64_t id,
                 std::string tag) {
  const Clock::time_point now = Clock::now();
  return add(std::move(name), now, now, parent, id, std::move(tag));
}

void Tracer::close(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

std::vector<double> Tracer::self_seconds() const {
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    Clock::time_point reach = p.start;
    for (auto [from, to] : kids) {
      from = std::max(from, reach);
      to = std::min(to, p.end);
      if (to <= from) continue;
      covered += seconds_between(from, to);
      reach = to;
    }
    self[i] = seconds_between(p.start, p.end) - covered;
  }
  return self;
}

bool Tracer::write_json(const std::string& path,
                        Clock::time_point origin) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_seconds();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"i\": %zu, \"name\": \"%s\", \"id\": %lld, \"tag\": "
                 "\"%s\", \"parent\": %d, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"self_s\": %.9f}%s\n",
                 i, json_escape(s.name).c_str(), static_cast<long long>(s.id),
                 json_escape(s.tag).c_str(), s.parent,
                 seconds_between(origin, s.start),
                 seconds_between(origin, s.end), self[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
