// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in this library takes an explicit seed so
// that experiments are reproducible run-to-run and machine-to-machine.
// We provide two engines:
//
//  * SplitMix64  — tiny, used for seeding and cheap decisions.
//  * Xoshiro256StarStar — the main engine (xoshiro256**, Blackman &
//    Vigna), fast and high quality, satisfying
//    std::uniform_random_bit_generator so it composes with <random>.
//
// On top of the engines, Rng offers the distributions the worm models
// need (uniform, Bernoulli, exponential, Poisson, Pareto, Zipf) without
// the cross-platform nondeterminism of the std:: distribution objects.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace dq {

/// SplitMix64: a 64-bit mixing generator. Primarily used to expand a
/// single user seed into the larger state of Xoshiro256StarStar, and as
/// a cheap standalone generator in tests.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — the workhorse engine.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit state words via SplitMix64 so that any seed
  /// (including 0) yields a well-mixed state.
  explicit Xoshiro256StarStar(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

/// An upper bound for Rng::uniform_int with its rejection threshold
/// computed once, for callers that draw many values under one bound.
struct UniformBound {
  explicit UniformBound(std::uint64_t n) noexcept
      : bound(n), threshold(n == 0 ? 0 : (~n + 1) % n) {}

  std::uint64_t bound;
  /// (2^64 - bound) mod bound. uniform_int rejects raw words below it
  /// and returns r % bound, so every residue keeps the same number of
  /// accepted words: OpenBSD's arc4random_uniform, over the whole word.
  /// (Lemire's multiply-shift would draw differently and so change
  /// every stream.)
  std::uint64_t threshold;
};

/// A mean for Rng::poisson with its Knuth limit exp(-mean) computed
/// once, for callers that draw many counts at one rate.
struct PoissonMean {
  explicit PoissonMean(double lambda) noexcept;

  double mean;
  /// exp(-mean) when 0 < mean < 64 (the Knuth range), else unused.
  double limit;
};

/// Rng: seedable source of the distributions used across the library.
/// All sampling is implemented directly (no std:: distributions) so the
/// stream is identical on every platform for a given seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) noexcept : engine_(seed) {}

  /// Raw 64 random bits.
  std::uint64_t next_u64() noexcept { return engine_(); }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    // 53 high-quality mantissa bits.
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound). bound must be > 0 (0 returns 0
  /// without drawing). Rejection avoids modulo bias (UniformBound).
  std::uint64_t uniform_int(const UniformBound& b) noexcept {
    if (b.bound == 0) return 0;  // degenerate; callers validate, keep noexcept
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= b.threshold) return r % b.bound;
    }
  }
  std::uint64_t uniform_int(std::uint64_t bound) noexcept {
    return uniform_int(UniformBound(bound));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Exponential with rate lambda (> 0); mean 1/lambda.
  double exponential(double lambda) noexcept;

  /// Poisson with mean lambda >= 0. Uses Knuth for small lambda and a
  /// normal approximation above 64 (fine for workload generation).
  std::uint64_t poisson(const PoissonMean& m) noexcept;
  std::uint64_t poisson(double lambda) noexcept {
    return poisson(PoissonMean(lambda));
  }

  /// Pareto (Lomax-free classic form): support [scale, inf), shape > 0.
  double pareto(double scale, double shape) noexcept;

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic).
  double normal(double mean = 0.0, double stddev = 1.0) noexcept;

  /// Geometric: number of failures before the first success, p in (0,1].
  std::uint64_t geometric(double p) noexcept;

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t weighted_index(const std::vector<double>& weights) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      using std::swap;
      swap(v[i - 1], v[uniform_int(static_cast<std::uint64_t>(i))]);
    }
  }

  /// Derives an independent child generator; useful to give each node
  /// or each run its own stream that does not perturb its siblings.
  Rng split() noexcept { return Rng(next_u64()); }

  /// UniformRandomBitGenerator interface, so Rng works with std::
  /// algorithms if ever needed.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() noexcept { return next_u64(); }

 private:
  Xoshiro256StarStar engine_;
};

/// Zipf(s, n) sampler over ranks {1..n} with exponent s >= 0, using a
/// precomputed CDF table. Deterministic given the Rng stream. Used by
/// the trace generator for P2P / web destination popularity.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  /// Returns a rank in [1, n].
  std::size_t sample(Rng& rng) const noexcept;

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace dq
