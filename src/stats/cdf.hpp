// Empirical CDFs — the primary presentation device of the paper's
// Section 7 trace study (Figure 9 plots contact-rate CDFs).
#pragma once

#include <cstddef>
#include <vector>

namespace dq {

/// Empirical cumulative distribution function over a finite sample.
/// Construction sorts a copy of the samples; queries are O(log n).
class EmpiricalCdf {
 public:
  EmpiricalCdf() = default;

  /// Builds from raw samples. Throws std::invalid_argument if empty.
  explicit EmpiricalCdf(std::vector<double> samples);

  /// P(X <= x): fraction of samples at or below x.
  double at_or_below(double x) const noexcept;

  /// Inverse CDF: smallest sample value v with P(X <= v) >= q.
  /// q in [0,1]; q = 0 gives the minimum.
  double quantile(double q) const;

  /// Smallest integer limit L such that at least `coverage` fraction of
  /// samples are <= L. This is exactly the paper's "limit to 16 per
  /// five seconds to avoid impact 99.9% of the time" computation.
  double limit_for_coverage(double coverage) const;

  std::size_t size() const noexcept { return sorted_.size(); }
  double min() const;
  double max() const;

  /// Evaluates the CDF at each of the given x positions; convenient for
  /// printing a figure as (x, F(x)) rows.
  std::vector<double> evaluate(const std::vector<double>& xs) const;

 private:
  std::vector<double> sorted_;
};

}  // namespace dq
