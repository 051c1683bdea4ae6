// serve_throughput — flows/sec bench and regression gate for the
// streaming quarantine service (src/serve, surfaced as `dqctl serve`).
//
// Drives the full router → SPSC → shard-engine pipeline with the
// deterministic synthetic flow generator at 1/2/4/8 shards, decision
// emission off (bench mode: the summary and metrics still cover every
// flow), and reports ingest throughput per shard count. The gate fails
// the run — nonzero exit, "pass": false in the JSON — when the 4-shard
// point falls below kFlowsPerSecFloor, a deliberate order of magnitude
// under what the pipeline delivers on CI-class hardware, so it catches
// a per-flow cost blow-up (a lock on the hot path, per-flow
// allocation), not scheduler noise.
//
//   serve_throughput [--quick] [--out=PATH]     (JSON to stdout without --out)
//
// CI runs this in the full lane and commits the artifact as
// bench/data/BENCH_serve.json.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "serve/server.hpp"
#include "serve/source.hpp"

namespace {

using namespace dq;

/// Floor on 4-shard synthetic ingest throughput (flows per wall
/// second).
constexpr double kFlowsPerSecFloor = 1.0e6;

struct BenchPoint {
  std::size_t shards = 0;
  std::uint64_t flows = 0;
  double wall_seconds = 0.0;
  double flows_per_sec = 0.0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_p999_ns = 0;
  double detected_targets = 0.0;
  double false_positive_hosts = 0.0;
};

/// checkpoint_interval > 0 additionally writes a periodic checkpoint
/// every that many flows (to a throwaway temp file) — the crash-safety
/// overhead point: quiesce + gather + serialize on the ingest path.
BenchPoint run_point(std::size_t shards, std::uint64_t flows,
                     std::uint64_t checkpoint_interval = 0) {
  serve::SyntheticConfig synth;
  synth.flows = flows;

  serve::ServeOptions options;
  options.shards = shards;
  options.num_hosts = synth.hosts;
  options.quarantine.enabled = true;
  options.quarantine.detector.window = 5.0;
  options.quarantine.detector.contact_rate_threshold = 0.0;
  options.quarantine.detector.distinct_dest_threshold = 0.0;
  options.quarantine.detector.failure_ratio_threshold = 0.7;
  options.quarantine.detector.failure_min_attempts = 5;
  options.quarantine.policy.base_period = 5.0;
  options.quarantine.policy.escalation = 4.0;
  options.quarantine.policy.max_period = 50.0;

  std::string checkpoint_path;
  if (checkpoint_interval > 0) {
    checkpoint_path = (std::filesystem::temp_directory_path() /
                       ("serve_throughput_ck_" +
                        std::to_string(::getpid()) + ".json"))
                          .string();
    options.checkpoint_path = checkpoint_path;
    options.checkpoint_interval_flows = checkpoint_interval;
  }

  serve::SyntheticFlowSource source(synth);
  serve::ServeServer server(options);
  const serve::ServeSummary summary = server.run(source, nullptr, nullptr);
  if (!checkpoint_path.empty()) {
    std::error_code ec;
    std::filesystem::remove(checkpoint_path, ec);
  }

  BenchPoint point;
  point.shards = shards;
  point.flows = summary.flows_ingested;
  point.wall_seconds = summary.wall_seconds;
  point.flows_per_sec = summary.flows_per_sec;
  point.latency_p50_ns = summary.latency_p50_ns;
  point.latency_p99_ns = summary.latency_p99_ns;
  point.latency_p999_ns = summary.latency_p999_ns;
  point.detected_targets = summary.report.detected_targets;
  point.false_positive_hosts = summary.report.false_positive_hosts;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0)
      quick = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0)
      path = argv[i] + 6;
    else {
      std::fprintf(stderr, "usage: serve_throughput [--quick] [--out=PATH]\n");
      return 2;
    }
  }

  // The quick curve shrinks the flow count, not the shard curve — the
  // gate must see the same contention pattern either way.
  const std::uint64_t flows = quick ? 200'000 : 2'000'000;
  const std::vector<std::size_t> shard_curve = {1, 2, 4, 8};

  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "serve_throughput: cannot open %s\n", path);
    return 1;
  }

  bool ok = true;
  std::vector<BenchPoint> points;
  points.reserve(shard_curve.size());
  for (const std::size_t shards : shard_curve) {
    // Warm-up pass at the smallest size amortizes first-touch costs
    // into neither measurement.
    if (points.empty()) run_point(shards, flows / 10);
    const BenchPoint point = run_point(shards, flows);
    if (point.shards == 4 && point.flows_per_sec < kFlowsPerSecFloor) {
      std::fprintf(stderr,
                   "serve_throughput: 4-shard throughput %.0f flows/sec "
                   "below floor %.0f\n",
                   point.flows_per_sec, kFlowsPerSecFloor);
      ok = false;
    }
    points.push_back(point);
  }

  // Crash-safety overhead: the 4-shard point with a checkpoint every
  // 100k flows must still clear the same floor — quiescing the shards
  // and serializing the full engine state is amortized enough to keep
  // on the ingest path in production.
  const BenchPoint ck_point = run_point(4, flows, 100'000);
  if (ck_point.flows_per_sec < kFlowsPerSecFloor) {
    std::fprintf(stderr,
                 "serve_throughput: checkpointing 4-shard throughput "
                 "%.0f flows/sec below floor %.0f\n",
                 ck_point.flows_per_sec, kFlowsPerSecFloor);
    ok = false;
  }

  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"serve-synthetic-throughput\",\n"
               "  \"variant\": \"%s\",\n"
               "  \"flows_per_point\": %llu,\n"
               "  \"throughput_floor_flows_per_sec\": %.0f,\n"
               "  \"points\": [\n",
               quick ? "quick" : "full",
               static_cast<unsigned long long>(flows), kFlowsPerSecFloor);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const BenchPoint& p = points[i];
    std::fprintf(out,
                 "    {\"shards\": %zu, \"flows\": %llu, "
                 "\"wall_seconds\": %.6f, \"flows_per_sec\": %.1f, "
                 "\"latency_p50_ns\": %llu, \"latency_p99_ns\": %llu, "
                 "\"latency_p999_ns\": %llu, "
                 "\"detected_targets\": %.0f, "
                 "\"false_positive_hosts\": %.0f}%s\n",
                 p.shards, static_cast<unsigned long long>(p.flows),
                 p.wall_seconds, p.flows_per_sec,
                 static_cast<unsigned long long>(p.latency_p50_ns),
                 static_cast<unsigned long long>(p.latency_p99_ns),
                 static_cast<unsigned long long>(p.latency_p999_ns),
                 p.detected_targets, p.false_positive_hosts,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"checkpoint_point\": {\"shards\": %zu, "
               "\"checkpoint_interval_flows\": 100000, "
               "\"flows\": %llu, \"wall_seconds\": %.6f, "
               "\"flows_per_sec\": %.1f},\n"
               "  \"pass\": %s\n"
               "}\n",
               ck_point.shards,
               static_cast<unsigned long long>(ck_point.flows),
               ck_point.wall_seconds, ck_point.flows_per_sec,
               ok ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}
