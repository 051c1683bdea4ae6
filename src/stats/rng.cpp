#include "stats/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dq {

// Out of line, so exp(-mean) is always the library's, never a
// compile-time fold of a constant mean that could round differently.
PoissonMean::PoissonMean(double lambda) noexcept
    : mean(lambda),
      limit(lambda > 0.0 && lambda < 64.0 ? std::exp(-lambda) : 0.0) {}

double Rng::exponential(double lambda) noexcept {
  // Inverse transform; guard against log(0).
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(1.0 - u) / lambda;
}

std::uint64_t Rng::poisson(const PoissonMean& m) noexcept {
  if (m.mean <= 0.0) return 0;
  if (m.mean < 64.0) {
    // Knuth: multiply uniforms until below e^-lambda.
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > m.limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for
  // workload generation at high rates.
  const double x = normal(m.mean, std::sqrt(m.mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Rng::pareto(double scale, double shape) noexcept {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return scale / std::pow(1.0 - u, 1.0 / shape);
}

double Rng::normal(double mean, double stddev) noexcept {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * 3.14159265358979323846 * u2);
}

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  if (total <= 0.0 || weights.empty()) return 0;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numeric edge: fall back to last index
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n must be > 0");
  if (exponent < 0.0)
    throw std::invalid_argument("ZipfSampler: exponent must be >= 0");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k), exponent);
    cdf_[k - 1] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::sample(Rng& rng) const noexcept {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t idx =
      it == cdf_.end() ? cdf_.size() - 1
                       : static_cast<std::size_t>(it - cdf_.begin());
  return idx + 1;  // ranks are 1-based
}

}  // namespace dq
