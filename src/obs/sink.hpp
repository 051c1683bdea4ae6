// Instrumentation entry points. A Sink is a pair of nullable pointers
// (registry + trace ring); the disabled path is literally a branch on
// a null pointer, so instrumented code costs one predictable-taken
// test per site when observability is off.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace dq::obs {

/// Per-run event/metric sink handed to the simulation engine (which
/// traces only at one shard: the ring has one writer), the quarantine
/// engine, and the trace replay. Default-constructed ({}) it is the
/// null sink: emit() is a single branch and metrics is nullptr.
struct Sink {
  MetricsRegistry* metrics = nullptr;
  TraceRing* trace = nullptr;
  SpanBuffer* spans = nullptr;  ///< phase-timing track (see obs/span.hpp)

  explicit operator bool() const noexcept {
    return metrics != nullptr || trace != nullptr;
  }

  void emit(const Event& e) noexcept {
    if (trace != nullptr) trace->push(e);
  }
};

inline constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 16;

/// Observability for a batch of runs (run_many, campaign jobs): one
/// shared registry — counter/histogram updates commute, so totals are
/// identical at any thread count — plus one private ring per run, so
/// the concatenated NDJSON export is byte-identical too.
class MultiRunSink {
 public:
  /// ring_capacity 0 disables tracing (metrics only, no rings).
  explicit MultiRunSink(std::size_t runs,
                        std::size_t ring_capacity = kDefaultRingCapacity);

  std::size_t runs() const noexcept { return runs_; }
  bool tracing() const noexcept { return !rings_.empty(); }

  /// Sink for run index `run` (0-based). Safe to call concurrently for
  /// distinct runs.
  Sink run_sink(std::size_t run);

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  const TraceRing& ring(std::size_t run) const { return rings_.at(run); }

  /// NDJSON of all runs' events, oldest-first within each run, runs in
  /// index order, each line tagged with its run index. Byte-identical
  /// across execution thread counts.
  void write_ndjson(std::ostream& out) const;

 private:
  std::size_t runs_;
  MetricsRegistry metrics_;
  std::vector<TraceRing> rings_;
};

}  // namespace dq::obs
