// Descriptive statistics used throughout the evaluation: quantiles, CDFs,
// rank correlation, least-squares fits — the exact quantities the paper's
// figures report.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ting {

/// Five-number-plus summary of a sample.
struct Summary {
  std::size_t n = 0;
  double min = 0, max = 0;
  double mean = 0, stddev = 0;
  double p25 = 0, median = 0, p75 = 0;

  /// Coefficient of variation (stddev / mean); the paper's Fig 9 metric.
  /// Returns 0 for an all-zero sample.
  double cv() const;
  std::string str() const;
};

/// Compute a Summary. Returns a default (zeroed) Summary for empty input.
Summary summarize(const std::vector<double>& xs);

/// Quantile with linear interpolation between closest ranks; q in [0, 1].
/// Requires non-empty input.
double quantile(std::vector<double> xs, double q);
/// Quantile of already-sorted data (no copy).
double quantile_sorted(const std::vector<double>& sorted, double q);

double mean_of(const std::vector<double>& xs);
double stddev_of(const std::vector<double>& xs);  ///< population stddev
double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// An empirical CDF: sorted values with evaluation and printing helpers.
class Cdf {
 public:
  Cdf() = default;
  explicit Cdf(std::vector<double> values);

  std::size_t size() const { return sorted_.size(); }
  bool empty() const { return sorted_.empty(); }
  /// Fraction of samples <= x.
  double fraction_at_or_below(double x) const;
  /// Value at cumulative fraction q (inverse CDF with interpolation).
  double value_at(double q) const;
  const std::vector<double>& sorted() const { return sorted_; }

  /// Rows "value<TAB>cum_fraction" at each distinct sample point — the
  /// series a plotting tool would consume to redraw the paper's CDF figures.
  std::string gnuplot_rows() const;
  /// Same, downsampled to at most `max_rows` evenly spaced points.
  std::string gnuplot_rows(std::size_t max_rows) const;

 private:
  std::vector<double> sorted_;
};

/// Pearson product-moment correlation. Requires xs.size()==ys.size() >= 2.
double pearson(const std::vector<double>& xs, const std::vector<double>& ys);

/// Spearman rank-order correlation (average ranks for ties) — the paper
/// reports 0.997 between Ting and ground truth.
double spearman(const std::vector<double>& xs, const std::vector<double>& ys);

/// y = slope*x + intercept least-squares fit.
struct LinearFit {
  double slope = 0;
  double intercept = 0;
  double r2 = 0;
  double at(double x) const { return slope * x + intercept; }
};
LinearFit linear_fit(const std::vector<double>& xs,
                     const std::vector<double>& ys);

/// Fixed-width histogram over [0, bin_width * nbins); values past the top
/// clamp into the last bin, negative values land in a separate underflow
/// bin rather than silently padding bin 0. Used for Fig 16/17's 50 ms RTT
/// bins.
class Histogram {
 public:
  Histogram(double bin_width, std::size_t nbins);
  void add(double x, double weight = 1.0);
  std::size_t nbins() const { return counts_.size(); }
  double bin_width() const { return bin_width_; }
  double bin_center(std::size_t i) const { return (i + 0.5) * bin_width_; }
  double count(std::size_t i) const { return counts_.at(i); }
  double underflow() const { return underflow_; }
  /// Sum over all bins, underflow included.
  double total() const;

 private:
  double bin_width_;
  double underflow_ = 0;
  std::vector<double> counts_;
};

/// Average ranks (1-based) with ties sharing the mean rank.
std::vector<double> ranks_of(const std::vector<double>& xs);

/// Kolmogorov–Smirnov distance between two empirical CDFs: the maximum
/// absolute gap between them over all sample points of both.
double ks_distance(const Cdf& a, const Cdf& b);

/// C(n, k) as a double, 0 when k > n. Scales circuit samples to the full
/// C(n, ℓ) population (Fig 16's y-axis is logarithmic, so double precision
/// is plenty).
double n_choose_k(std::size_t n, std::size_t k);

}  // namespace ting
