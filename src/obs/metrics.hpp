// Thread-safe metrics registry: named counters, gauges, and log-2
// histograms, snapshotable to canonical JSON (campaign/json.hpp).
//
// Design contract (see docs/OBSERVABILITY.md):
//  - Registration (counter()/gauge()/histogram()) takes a mutex and
//    returns a stable reference; do it once at setup, not per event.
//  - Updates (Counter::add, Gauge::set, Histogram::record) are lock-free
//    relaxed atomics, safe from any thread. Counter and histogram
//    updates commute, so final values are independent of thread
//    interleaving — the basis for the 1-vs-8-thread determinism tests.
//  - snapshot() iterates names in sorted order and emits canonical
//    JSON, so equal metric values always serialize to equal bytes.
//  - Metrics flagged kWallClock (timings) are excluded from
//    deterministic snapshots so cached artifacts stay byte-stable.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/json.hpp"

namespace dq::obs {

/// Whether a metric's final value is a pure function of the run config
/// (kDeterministic) or depends on the machine/clock (kWallClock).
enum class Determinism : std::uint8_t { kDeterministic, kWallClock };

/// Monotonic counter. add() is wait-free and commutative.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins double gauge.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over unsigned values with fixed log-2 buckets. Bucket b
/// holds values whose bit width is b: bucket 0 is exactly {0}, bucket
/// b >= 1 covers [2^(b-1), 2^b - 1]. Powers of two therefore land
/// exactly on lower bucket boundaries: record(2^k) and record(2^k - 1)
/// hit adjacent buckets.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v) noexcept {
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  /// Adds samples bucketed by the caller — counts[b] values of bit
  /// width b, summing to `sum` — with one atomic add per nonzero
  /// bucket: the same end state as record()ing each value.
  void record_counts(const std::array<std::uint64_t, kBuckets>& counts,
                     std::uint64_t sum) noexcept {
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts[b] == 0) continue;
      buckets_[b].fetch_add(counts[b], std::memory_order_relaxed);
      n += counts[b];
    }
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(sum, std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  /// Smallest value mapped to bucket i (0, 1, 2, 4, 8, ...).
  static std::uint64_t bucket_lower_bound(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Largest value mapped to bucket i (0, 1, 3, 7, 15, ...).
  static std::uint64_t bucket_upper_bound(std::size_t i) noexcept {
    if (i == 0) return 0;
    if (i >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << i) - 1;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Folds a label set into a registry name: "name{k1=v1,k2=v2}" with
/// keys sorted, so the same labels always produce the same metric.
std::string labeled(std::string_view name,
                    std::vector<std::pair<std::string, std::string>> labels);

/// Upper bound of the bucket holding the q-quantile by cumulative
/// count (q clamped to [0,1]): the smallest bucket upper bound v such
/// that at least ceil(q * count) recorded values are <= bucket(v).
/// Log-2 resolution, like the buckets themselves; 0 when empty. Used
/// for the serve-mode decision-latency percentiles.
std::uint64_t histogram_quantile(const Histogram& h, double q) noexcept;

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. References stay valid for the registry lifetime.
  Counter& counter(std::string_view name,
                   Determinism det = Determinism::kDeterministic);
  Gauge& gauge(std::string_view name,
               Determinism det = Determinism::kWallClock);
  Histogram& histogram(std::string_view name,
                       Determinism det = Determinism::kDeterministic);

  /// Canonical snapshot: {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count":..,"sum":..,"buckets":[[lower,n],..]}}}
  /// with names sorted and only nonzero histogram buckets listed.
  /// deterministic_only drops kWallClock metrics (for cached artifacts).
  campaign::JsonValue snapshot(bool deterministic_only = false) const;

  /// Sums `part` (a snapshot()) into `total` in place: counters and
  /// histogram counts/sums/buckets add; gauges last-write-wins. An
  /// empty/null `total` becomes a copy of `part`.
  static void merge_snapshot(campaign::JsonValue& total,
                             const campaign::JsonValue& part);

 private:
  template <typename T>
  struct Entry {
    std::unique_ptr<T> metric;
    Determinism det;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry<Counter>, std::less<>> counters_;
  std::map<std::string, Entry<Gauge>, std::less<>> gauges_;
  std::map<std::string, Entry<Histogram>, std::less<>> histograms_;
};

}  // namespace dq::obs
