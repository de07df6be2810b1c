#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "util/assert.h"

namespace ting {

double Summary::cv() const {
  if (mean == 0) return 0;
  return stddev / mean;
}

std::string Summary::str() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "n=%zu min=%.3f p25=%.3f med=%.3f p75=%.3f max=%.3f "
                "mean=%.3f sd=%.3f",
                n, min, p25, median, p75, max, mean, stddev);
  return buf;
}

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  if (xs.empty()) return s;
  std::vector<double> v = xs;
  std::sort(v.begin(), v.end());
  s.n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.mean = mean_of(v);
  s.stddev = stddev_of(v);
  s.p25 = quantile_sorted(v, 0.25);
  s.median = quantile_sorted(v, 0.5);
  s.p75 = quantile_sorted(v, 0.75);
  return s;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  TING_CHECK(!sorted.empty());
  TING_CHECK(q >= 0.0 && q <= 1.0);
  if (sorted.size() == 1) return sorted[0];
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return quantile_sorted(xs, q);
}

double mean_of(const std::vector<double>& xs) {
  TING_CHECK(!xs.empty());
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double stddev_of(const std::vector<double>& xs) {
  TING_CHECK(!xs.empty());
  const double m = mean_of(xs);
  double acc = 0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size()));
}

double min_of(const std::vector<double>& xs) {
  TING_CHECK(!xs.empty());
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  TING_CHECK(!xs.empty());
  return *std::max_element(xs.begin(), xs.end());
}

Cdf::Cdf(std::vector<double> values) : sorted_(std::move(values)) {
  std::sort(sorted_.begin(), sorted_.end());
}

double Cdf::fraction_at_or_below(double x) const {
  if (sorted_.empty()) return 0;
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Cdf::value_at(double q) const {
  TING_CHECK(!sorted_.empty());
  return quantile_sorted(sorted_, q);
}

std::string Cdf::gnuplot_rows() const { return gnuplot_rows(sorted_.size()); }

std::string Cdf::gnuplot_rows(std::size_t max_rows) const {
  std::ostringstream os;
  if (sorted_.empty() || max_rows == 0) return os.str();
  const std::size_t n = sorted_.size();
  const std::size_t rows = std::min(max_rows, n);
  for (std::size_t r = 0; r < rows; ++r) {
    // Pick evenly spaced sample indices, always including the last.
    const std::size_t i = (rows == 1) ? n - 1 : r * (n - 1) / (rows - 1);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g\t%.6f\n", sorted_[i],
                  static_cast<double>(i + 1) / static_cast<double>(n));
    os << buf;
  }
  return os.str();
}

double pearson(const std::vector<double>& xs, const std::vector<double>& ys) {
  TING_CHECK(xs.size() == ys.size());
  TING_CHECK(xs.size() >= 2);
  const double mx = mean_of(xs), my = mean_of(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  TING_CHECK(sxx > 0 && syy > 0);
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks_of(const std::vector<double>& xs) {
  const std::size_t n = xs.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(n);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && xs[order[j + 1]] == xs[order[i]]) ++j;
    const double avg_rank = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg_rank;
    i = j + 1;
  }
  return ranks;
}

double spearman(const std::vector<double>& xs, const std::vector<double>& ys) {
  return pearson(ranks_of(xs), ranks_of(ys));
}

LinearFit linear_fit(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  TING_CHECK(xs.size() == ys.size());
  TING_CHECK(xs.size() >= 2);
  const double mx = mean_of(xs), my = mean_of(ys);
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  TING_CHECK(sxx > 0);
  LinearFit f;
  f.slope = sxy / sxx;
  f.intercept = my - f.slope * mx;
  f.r2 = (syy > 0) ? (sxy * sxy) / (sxx * syy) : 1.0;
  return f;
}

double ks_distance(const Cdf& a, const Cdf& b) {
  TING_CHECK(!a.empty() && !b.empty());
  double max_gap = 0;
  for (const double x : a.sorted())
    max_gap = std::max(max_gap, std::abs(a.fraction_at_or_below(x) -
                                         b.fraction_at_or_below(x)));
  for (const double x : b.sorted())
    max_gap = std::max(max_gap, std::abs(a.fraction_at_or_below(x) -
                                         b.fraction_at_or_below(x)));
  return max_gap;
}

double n_choose_k(std::size_t n, std::size_t k) {
  if (k > n) return 0;
  double result = 1;
  for (std::size_t i = 0; i < k; ++i)
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  return result;
}

Histogram::Histogram(double bin_width, std::size_t nbins)
    : bin_width_(bin_width), counts_(nbins, 0.0) {
  TING_CHECK(bin_width > 0 && nbins > 0);
}

void Histogram::add(double x, double weight) {
  if (x < 0) {
    underflow_ += weight;
    return;
  }
  std::size_t i = static_cast<std::size_t>(x / bin_width_);
  if (i >= counts_.size()) i = counts_.size() - 1;
  counts_[i] += weight;
}

double Histogram::total() const {
  return underflow_ +
         std::accumulate(counts_.begin(), counts_.end(), 0.0);
}

}  // namespace ting
