// Declarative experiment-campaign engine.
//
// A campaign is a flat list of content-hashed jobs. Each job's
// configuration is canonically serialized (job.hpp) and FNV-hashed;
// the hash names the job's on-disk artifact (cache.hpp) and seeds its
// private RNG substream. run_scenarios (scenarios.hpp) builds the list
// and runs it on up to `RunOptions::jobs` threads — results are
// byte-identical regardless of thread count, cache state, or
// completion order, because nothing about scheduling feeds into a
// job's RNG stream or its serialized output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/json.hpp"
#include "core/figure.hpp"
#include "obs/span.hpp"
#include "simulator/runner.hpp"

namespace dq::campaign {

/// What a finished (or failed) job produced. Exactly one of
/// `sim_result` / `figure` is set on success, matching the job kind.
struct JobOutcome {
  std::string name;
  JobConfig config;
  std::uint64_t hash = 0;
  bool cache_hit = false;
  /// A cached artifact failed to parse or decode and was recomputed
  /// and overwritten (counted as `campaign.cache_corrupt`).
  bool cache_corrupt = false;
  double wall_seconds = 0.0;       ///< manifest-only; never in artifact
  std::string artifact;            ///< canonical JSON bytes
  std::optional<sim::AveragedResult> sim_result;
  std::optional<core::FigureData> figure;
  /// Deterministic obs-registry snapshot recorded inside the artifact
  /// ("metrics" key) — restored from cache on a hit, so telemetry
  /// totals are cold/warm-identical. Null for analytical jobs and
  /// artifacts written before the obs layer existed.
  JsonValue metrics;
  /// Events the job's trace rings evicted, summed over its runs: a run
  /// that outgrew obs::kDefaultRingCapacity kept only its newest
  /// events. 0 unless the job wrote a trace.
  std::uint64_t trace_dropped = 0;
  std::string error;               ///< non-empty means the job failed

  bool ok() const noexcept { return error.empty(); }
};

/// Job lifecycle notifications (the campaign progress surface).
enum class JobPhase : std::uint8_t {
  kQueued,    ///< in the campaign's job list, not started yet
  kStarted,   ///< execution began (cache probe included)
  kCacheHit,  ///< artifact served from .dq-cache
  kFinished,  ///< completed OK (cache hit or fresh run)
  kFailed,    ///< completed with an error
};

const char* to_string(JobPhase phase) noexcept;

struct JobEvent {
  std::size_t index = 0;
  std::string name;
  JobPhase phase = JobPhase::kQueued;
  bool cache_hit = false;
  double wall_seconds = 0.0;  ///< kFinished/kFailed only
};

struct RunOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = inline on the
  /// caller.
  std::size_t jobs = 0;
  bool use_cache = true;
  std::filesystem::path cache_dir = ".dq-cache";
  /// Non-empty: freshly executed simulation jobs write their NDJSON
  /// event trace to <trace_dir>/<job name, '/'→'_'>.ndjson. Cache hits
  /// write no trace (events are not cached) — pass use_cache=false to
  /// trace everything. Trace output never feeds back into artifacts,
  /// so artifact bytes are identical with tracing on or off. A run
  /// keeps its newest obs::kDefaultRingCapacity events;
  /// JobOutcome::trace_dropped counts the rest.
  std::filesystem::path trace_dir;
  /// Lifecycle callback; invoked from worker threads (must be
  /// thread-safe). Null = no notifications.
  std::function<void(const JobEvent&)> on_job_event;
  /// Span profiler for job lifecycle timing (null disables). Each job
  /// gets its own track (named after the job), so the Chrome trace
  /// shows the campaign's parallel schedule; run_scenarios' shared
  /// topology builds go on a "topologies" track. Profiler::track() is
  /// thread-safe and spans never touch job state, so artifacts stay
  /// byte-identical with profiling on or off.
  obs::Profiler* profiler = nullptr;
};

/// Runs a single job to an outcome: cache probe, then (on a miss)
/// build + simulate/evaluate, serialize, store. The effective
/// simulation seed is substream_seed(job hash) — the config's own
/// `seed` participates in the hash but is not used directly, so any
/// config edit lands on a fresh, reproducible stream. A simulation job
/// given `topology` (sim::build_topology of a spec with the job's graph
/// fields) puts its roles on it instead of building its own network;
/// the outcome is byte-identical either way.
JobOutcome execute_job(
    const std::string& name, const JobConfig& config,
    const RunOptions& options, std::size_t index = 0,
    std::shared_ptr<const sim::RoutedTopology> topology = nullptr);

/// Machine-readable run manifest: per-job name/hash/kind/cache_hit/
/// wall_seconds/artifact-path/perf/metrics (and trace_dropped when
/// options.trace_dir is set) plus aggregate totals
/// (including the merged deterministic "metrics" across simulation
/// jobs, identical cold or warm). Wall-clock lives only here, never in
/// artifacts.
JsonValue build_manifest(const std::vector<JobOutcome>& outcomes,
                         const RunOptions& options, double total_wall_seconds);

/// Merged deterministic metrics across successful jobs (the manifest's
/// "metrics" object, exposed for `dqctl campaign run --metrics-out`),
/// plus a `campaign.cache_corrupt` counter when any cached artifact had
/// to be recomputed.
JsonValue merge_outcome_metrics(const std::vector<JobOutcome>& outcomes);

}  // namespace dq::campaign
