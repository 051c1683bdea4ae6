// Shared plumbing for the product-path benchmark: command-line
// arguments, clocks, order statistics, the result report, and the
// in-memory span recorder used by traced runs.
//
// Every workload prints its metrics as `name value unit` lines and ends
// with one `RESULT {...}` line that run.py turns into the benchmark's
// final JSON object.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace dqb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Nearest-rank percentile: the smallest sample with at least q·n
/// samples at or below it (q in (0, 1]). Sorts `v` in place.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// Mean after dropping the lowest and highest tenth (n/10 samples each
/// side, rounded down). The per-repetition times of one run can switch
/// between two speeds as the shared host's load changes; their median
/// then jumps from one speed to the other between runs, while this
/// moves only with the share of time spent at each.
double trimmed_mean(std::vector<double> v);

/// The highest percentile that still has at least 10 samples strictly
/// beyond it: with n samples sorted descending that is the 11th value,
/// at percentile 100·(1 − 10/n). Needs n > 10.
struct Tail {
  double percentile = 0.0;  ///< e.g. 99.9995
  double value = 0.0;
  std::size_t beyond = 0;   ///< samples strictly above `value`'s rank
};
Tail tail_of(std::vector<double>& v);

/// Peak resident set (VmHWM) of this process in MiB.
double peak_rss_mb();

/// Order-independent-of-chunking 64-bit hash of a byte stream: equal
/// byte sequences hash equal however they were split across writes.
class StreamHash {
 public:
  void update(const char* data, std::size_t n) noexcept;
  std::uint64_t digest() const noexcept;

 private:
  std::uint64_t h_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t carry_ = 0;
  unsigned carry_len_ = 0;
  std::uint64_t total_ = 0;
};

/// One recorded span. Aggregated spans (count > 1) stand for many calls
/// on one thread: dur_ns is their summed duration, start/end the first
/// call's start and the last call's end.
struct SpanRec {
  std::string name;
  std::string track;  ///< the thread the span ran on
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t count = 1;
  std::int64_t parent = -1;
  std::uint32_t run = 0;  ///< repetition index within the workload
};

/// Spans kept in memory for the whole benchmark and written out at the
/// end. Disabled tracers record nothing and hand out id -1. Used from
/// the workload's main thread only: spans are added after the product
/// calls they describe have returned.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }
  /// Records a closed span; returns its id (the parent of later spans).
  std::int64_t add(SpanRec span);
  /// Imports the spans a product hook recorded into `buffer` as
  /// `prefix + name` on `track`, each parented to the span among
  /// `parents` (ids, ascending start) whose interval contains its start,
  /// else to `fallback`. Returns the number the buffer dropped.
  std::uint64_t import_buffer(const dq::obs::SpanBuffer& buffer,
                              const std::string& prefix,
                              const std::string& track,
                              const std::vector<std::int64_t>& parents,
                              std::int64_t fallback, std::uint32_t run);

  const std::vector<SpanRec>& spans() const noexcept { return spans_; }
  /// Self time per span name, summed over spans of `run` (all runs when
  /// run < 0): a span's duration minus its same-track children's.
  std::map<std::string, double> self_seconds(long run = -1) const;
  void write_ndjson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRec> spans_;
};

/// Accumulates metrics and output checks, then prints them.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0, const std::string& note = "");
  void check(const std::string& name, bool ok, const std::string& detail);
  /// A free-form `# ...` line printed with the metrics.
  void note(const std::string& text);
  /// Notes every repetition's value of a per-repetition series.
  void series(const std::string& name, const std::vector<double>& values);
  /// Counts one attempted operation of the workload (a flow, a job, a
  /// scan packet) and whether it failed.
  void attempted(std::uint64_t n, std::uint64_t failed);

  bool ok() const noexcept;
  /// Prints the human lines and the closing RESULT line; returns the
  /// process exit code (nonzero when any check failed).
  int finish(const std::string& workload) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Entry> metrics_;
  std::vector<Check> checks_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Repeats `rep(i)` until about `seconds` of wall time have passed since
/// `start_ns`, at least `min_reps` and at most `max_reps` times.
void repeat_for(double seconds, std::uint64_t start_ns, std::size_t min_reps,
                std::size_t max_reps,
                const std::function<void(std::size_t)>& rep);

/// Reports latency_p50_ms, latency_p99_ms and latency_tail_ms (the
/// ten-sample tail) over pooled samples, each with its sample count.
void report_latency(Report& report, std::vector<double>& samples_ms,
                    const std::string& what);

// Workload entry points (one per translation unit).
int run_serve_ndjson(const Args& args);
int run_serve_paced(const Args& args);
int run_campaign_cold(const Args& args);
int run_sim_scale(const Args& args);
/// Checks the latency arithmetic on a tiny hand-made input; used by
/// the serve workloads before they measure, and on its own by
/// `--workload selfcheck`.
bool serve_selfcheck(std::string& detail);

}  // namespace dqb
