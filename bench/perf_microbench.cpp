// Google-benchmark microbenchmarks for the engines underneath the
// figure reproductions: ODE integration, routing-table construction,
// a full worm-simulation run, throttle decision paths, and trace
// analysis. These guard against performance regressions that would
// make the 10-run figure averages painful.
//
// `--perf_json[=PATH]` skips the google-benchmark suite and instead
// times the tick loop on two scenarios, dumping per-run means of the
// PerfCounters breakdown as a JSON array —
// bench/data/BENCH_tickloop.json comes from this mode:
//   * sparse10k — a sparse-infection run (10k nodes, <1% ever
//     infected), in samples of seeded runs that total at least 0.1 s;
//   * backbone1k — the campaign's heaviest job,
//     ablation-beta/beta-3.2-backbone (BA(1000, 2), backbone rate
//     limiting, β = 3.2, 200 ticks), one sample being the job's own
//     ten runs: the forward phase's queue work.
//
// `--obs_json[=PATH]` is the observability perf gate: it times the same
// sparse samples with the obs sink disabled, metrics-only, and
// metrics+trace-ring, asserts every run's trajectory is identical in
// all three, and fails (exit 1) when the instrumented samples exceed
// generous overhead bounds relative to obs-off. bench/data/BENCH_obs.json
// is written from this mode.
//
// `--scale_json[=PATH]` is the nodes-scaling gate for the sharded
// engine: for each N on the curve (10⁴, 10⁵, 10⁶) it builds a BA(N, 2)
// network, runs ShardedSimulation at 1 shard and at the hardware shard
// count, asserts the two trajectories are identical, and fails
// (exit 1) if throughput drops below a generous node-ticks/sec floor
// or the all-pairs network build exceeds a per-node-pair time ceiling.
// bench/data/BENCH_scale.json is written from this mode.
// `--scale_json_small[=PATH]` runs the same gate on a 5·10³/5·10⁴
// curve for the CI fast lane.
//
// `--estimator_json[=PATH]` is the detector-memory gate for the
// shared-bitmap estimator backend: at 10⁶ and 10⁷ tracked hosts it
// asserts CompactEstimatorStore stays within the bytes/host ceiling
// and above a raw observe-throughput floor, then runs a compact-backend
// serve pipeline to hold the same flows/sec floor as BENCH_serve.json.
// bench/data/BENCH_estimator.json is written from this mode.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/scenarios.hpp"
#include "obs/sink.hpp"

#include "epidemic/immunization.hpp"
#include "epidemic/si_model.hpp"
#include "graph/builders.hpp"
#include "graph/routing.hpp"
#include "quarantine/compact_store.hpp"
#include "quarantine/detectors.hpp"
#include "ratelimit/dns_throttle.hpp"
#include "ratelimit/sliding_window.hpp"
#include "ratelimit/williamson.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"
#include "simulator/runner.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/hash.hpp"
#include "stats/rng.hpp"
#include "trace/analysis.hpp"
#include "trace/department.hpp"

namespace {

using namespace dq;

void BM_RngPoisson(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.poisson(0.8));
}
BENCHMARK(BM_RngPoisson);

void BM_OdeSiIntegration(benchmark::State& state) {
  epidemic::SiParams p;
  const epidemic::HomogeneousSi model(p);
  const std::vector<double> grid = uniform_grid(0.0, 50.0, 101);
  for (auto _ : state) benchmark::DoNotOptimize(model.integrate(grid));
}
BENCHMARK(BM_OdeSiIntegration);

void BM_ImmunizationIntegration(benchmark::State& state) {
  epidemic::DelayedImmunizationParams p;
  const epidemic::DelayedImmunizationModel model(p);
  const std::vector<double> grid = uniform_grid(0.0, 50.0, 101);
  for (auto _ : state) benchmark::DoNotOptimize(model.integrate(grid));
}
BENCHMARK(BM_ImmunizationIntegration);

void BM_BarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(graph::make_barabasi_albert(n, 2, rng));
  }
}
BENCHMARK(BM_BarabasiAlbert)->Arg(200)->Arg(1000);

void BM_RoutingTableBuild(benchmark::State& state) {
  Rng rng(7);
  const graph::Graph g =
      graph::make_barabasi_albert(static_cast<std::size_t>(state.range(0)),
                                  2, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(std::make_unique<graph::RoutingTable>(g));
}
BENCHMARK(BM_RoutingTableBuild)->Arg(200)->Arg(1000);

void BM_SimulationRun(benchmark::State& state) {
  Rng rng(7);
  const sim::Network net(graph::make_barabasi_albert(1000, 2, rng));
  for (auto _ : state) {
    sim::SimulationConfig cfg;
    cfg.worm.contact_rate = 0.8;
    cfg.max_ticks = 50.0;
    cfg.seed = 3;
    sim::ShardedSimulation sim(net, cfg, /*num_shards=*/1);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulationRun);

void BM_SimulationBackboneRl(benchmark::State& state) {
  Rng rng(7);
  const sim::Network net(graph::make_barabasi_albert(1000, 2, rng));
  for (auto _ : state) {
    sim::SimulationConfig cfg;
    cfg.worm.contact_rate = 0.8;
    cfg.max_ticks = 50.0;
    cfg.seed = 3;
    cfg.deployment.backbone_limited = true;
    sim::ShardedSimulation sim(net, cfg, /*num_shards=*/1);
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulationBackboneRl);

void BM_WilliamsonSubmit(benchmark::State& state) {
  ratelimit::WilliamsonThrottle throttle(ratelimit::WilliamsonConfig{});
  Rng rng(5);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(
        throttle.submit(t, static_cast<ratelimit::IpAddress>(rng.next_u64())));
  }
}
BENCHMARK(BM_WilliamsonSubmit);

void BM_DnsThrottleAllow(benchmark::State& state) {
  ratelimit::DnsThrottle throttle(ratelimit::DnsThrottleConfig{});
  Rng rng(5);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(
        throttle.allow(t, static_cast<ratelimit::IpAddress>(rng.next_u64())));
  }
}
BENCHMARK(BM_DnsThrottleAllow);

void BM_SlidingWindowAllow(benchmark::State& state) {
  ratelimit::SlidingWindowLimiter limiter(5.0, 16);
  Rng rng(5);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.01;
    benchmark::DoNotOptimize(
        limiter.allow(t, static_cast<ratelimit::IpAddress>(rng.next_u64())));
  }
}
BENCHMARK(BM_SlidingWindowAllow);

const trace::Trace& bench_trace() {
  static const trace::Trace t = [] {
    trace::DepartmentConfig config;
    config.normal_clients = 200;
    config.servers = 4;
    config.p2p_clients = 8;
    config.blaster_hosts = 8;
    config.welchia_hosts = 8;
    config.duration = 1800.0;
    return trace::generate_department_trace(config, 1);
  }();
  return t;
}

void BM_TraceGeneration(benchmark::State& state) {
  trace::DepartmentConfig config;
  config.normal_clients = 100;
  config.servers = 2;
  config.p2p_clients = 4;
  config.blaster_hosts = 4;
  config.welchia_hosts = 4;
  config.duration = 600.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(trace::generate_department_trace(config, 1));
}
BENCHMARK(BM_TraceGeneration);

void BM_WindowCounts(benchmark::State& state) {
  const trace::Trace& t = bench_trace();
  const auto hosts = t.hosts_in(trace::HostCategory::kNormalClient);
  trace::ContactRateOptions options;
  for (auto _ : state)
    benchmark::DoNotOptimize(trace::window_counts(
        t, hosts, trace::Refinement::kNoPriorNoDns, options));
}
BENCHMARK(BM_WindowCounts);

// ---- sparse10k samples (--perf_json, --obs_json) ----

/// The sparse-infection regime the active-set indexes target: a large
/// network with a tiny infected population, where the legacy
/// implementation swept all N nodes and L links every tick.
constexpr std::size_t kSparseNodes = 10000;

/// One sparse10k run takes ~0.1 ms, so a timed sample is a batch of
/// seeded runs summing at least this much run time; a ratio of two
/// samples is then not timer noise.
constexpr double kMinSampleSeconds = 0.1;

/// Samples per mode; each mode reports its fastest.
constexpr int kSparseSamples = 5;

sim::SimulationConfig sparse_config() {
  sim::SimulationConfig cfg;
  cfg.worm.contact_rate = 0.02;  // sparse: <1% ever infected
  cfg.worm.initial_infected = 20;
  cfg.max_ticks = 50.0;
  cfg.stop_when_saturated = false;
  cfg.seed = 3;
  return cfg;
}

enum class ObsMode { kOff, kMetrics, kTrace };

/// One timed sample: run i uses seed seed_of(cfg.seed, i).
struct SparseSample {
  double seconds = 0.0;       ///< summed wall time of the runs
  double wall_seconds = 0.0;  ///< the batch, simulation construction included
  sim::PerfCounters perf;     ///< summed over the runs
  std::uint64_t ever_infected = 0;  ///< summed final ever-infected counts
  std::uint64_t events = 0;         ///< trace events captured (trace mode)
  /// (ticks, final ever-infected) of each run: its trajectory's signature.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;
};

std::uint64_t consecutive_seed(std::uint64_t first, std::size_t i) {
  return first + i;
}

/// Consecutive seeds by default; sim::run_seed gives a campaign job's
/// own runs.
SparseSample run_sparse_sample(
    const sim::Network& net, sim::SimulationConfig cfg, std::size_t runs,
    ObsMode mode,
    std::uint64_t (*seed_of)(std::uint64_t, std::size_t) = consecutive_seed) {
  using clock = std::chrono::steady_clock;
  SparseSample sample;
  sample.runs.reserve(runs);
  const std::uint64_t first_seed = cfg.seed;
  const auto batch_start = clock::now();
  for (std::size_t i = 0; i < runs; ++i) {
    cfg.seed = seed_of(first_seed, i);
    // Fresh sink per run: timing always covers the same cold-counter
    // path a campaign job sees.
    obs::MultiRunSink sink(
        1, mode == ObsMode::kTrace ? obs::kDefaultRingCapacity : 0);
    sim::ShardedSimulation sim(net, cfg, /*num_shards=*/1,
                               mode == ObsMode::kOff ? obs::Sink{}
                                                     : sink.run_sink(0));
    const auto start = clock::now();
    const sim::RunResult result = sim.run();
    sample.seconds +=
        std::chrono::duration<double>(clock::now() - start).count();
    sample.perf += result.perf;
    sample.ever_infected += result.final_ever_infected_count;
    sample.runs.emplace_back(result.perf.ticks,
                             result.final_ever_infected_count);
    if (mode == ObsMode::kTrace)
      sample.events += sink.ring(0).events().size();
  }
  sample.wall_seconds =
      std::chrono::duration<double>(clock::now() - batch_start).count();
  return sample;
}

/// Runs per sample: enough for kMinSampleSeconds of obs-off run time
/// at the per-run cost of the faster of two 64-run probes (the first
/// also warms caches), and half again for margin.
std::size_t sparse_runs_per_sample(const sim::Network& net,
                                   const sim::SimulationConfig& cfg) {
  constexpr std::size_t kProbeRuns = 64;
  double probe_seconds = 0.0;
  for (int probe = 0; probe < 2; ++probe) {
    const double seconds =
        run_sparse_sample(net, cfg, kProbeRuns, ObsMode::kOff).seconds;
    if (probe == 0 || seconds < probe_seconds) probe_seconds = seconds;
  }
  return static_cast<std::size_t>(1.5 * kMinSampleSeconds * kProbeRuns /
                                  probe_seconds) +
         1;
}

// ---- --perf_json mode ----

/// The fastest of kSparseSamples samples of `runs` runs each.
SparseSample fastest_sample(const sim::Network& net,
                            const sim::SimulationConfig& cfg,
                            std::size_t runs,
                            std::uint64_t (*seed_of)(std::uint64_t,
                                                     std::size_t)) {
  SparseSample best;
  for (int i = 0; i < kSparseSamples; ++i) {
    SparseSample sample =
        run_sparse_sample(net, cfg, runs, ObsMode::kOff, seed_of);
    if (i == 0 || sample.seconds < best.seconds) best = std::move(sample);
  }
  return best;
}

/// One scenario's JSON object: the sample's shape, then per-run means
/// of its PerfCounters.
void print_tickloop(std::FILE* out, const char* scenario, std::size_t nodes,
                    std::uint64_t first_seed, const SparseSample& best,
                    bool last) {
  const sim::PerfCounters& p = best.perf;
  const double n = static_cast<double>(best.runs.size());
  std::fprintf(out,
               "  {\n"
               "    \"scenario\": \"%s\",\n"
               "    \"nodes\": %zu,\n"
               "    \"samples\": %d,\n"
               "    \"runs_per_sample\": %zu,\n"
               "    \"first_seed\": %llu,\n"
               "    \"sample_seconds\": %.6f,\n"
               "    \"sample_wall_seconds\": %.6f,\n"
               "    \"ticks_per_sec\": %.1f,\n"
               "    \"per_run_mean\": {\n"
               "      \"ticks\": %.3f,\n"
               "      \"final_ever_infected\": %.3f,\n"
               "      \"packets_forwarded\": %.3f,\n"
               "      \"link_hops\": %.3f,\n"
               "      \"queue_events\": %.3f,\n"
               "      \"queue_releases\": %.3f,\n"
               "      \"seconds_run\": %.9f,\n"
               "      \"seconds_total\": %.9f,\n"
               "      \"seconds_emit\": %.9f,\n"
               "      \"seconds_forward\": %.9f,\n"
               "      \"seconds_apply\": %.9f,\n"
               "      \"seconds_record\": %.9f\n"
               "    }\n"
               "  }%s\n",
               scenario, nodes, kSparseSamples, best.runs.size(),
               static_cast<unsigned long long>(first_seed), best.seconds,
               best.wall_seconds,
               static_cast<double>(p.ticks) / best.seconds,
               static_cast<double>(p.ticks) / n,
               static_cast<double>(best.ever_infected) / n,
               static_cast<double>(p.packets_forwarded) / n,
               static_cast<double>(p.link_hops) / n,
               static_cast<double>(p.queue_events) / n,
               static_cast<double>(p.queue_releases) / n, best.seconds / n,
               p.total_seconds() / n, p.seconds_emit / n,
               p.seconds_forward / n, p.seconds_apply / n,
               p.seconds_record / n, last ? "" : ",");
}

/// Times the per-tick pipeline on sparse10k and backbone1k and dumps
/// each PerfCounters breakdown as per-run means of its fastest sample.
int run_perf_json(const char* path) {
  // Open the sink before the expensive network build so a bad path
  // fails in milliseconds, not minutes.
  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "perf_microbench: cannot open %s\n", path);
    return 1;
  }
  std::fprintf(out, "[\n");

  {
    Rng rng(7);
    const sim::Network net(graph::make_barabasi_albert(kSparseNodes, 2, rng));
    const sim::SimulationConfig cfg = sparse_config();
    const std::size_t runs = sparse_runs_per_sample(net, cfg);
    print_tickloop(out, "sparse10k", kSparseNodes, cfg.seed,
                   fastest_sample(net, cfg, runs, consecutive_seed),
                   /*last=*/false);
  }

  {
    // The job exactly as `dqctl campaign run` executes it at the
    // default seed: its network, its substream seed, its runs.
    const auto catalogue =
        campaign::builtin_scenarios(core::ExperimentOptions{});
    const campaign::ScenarioDef* beta =
        campaign::find_scenario(catalogue, "ablation-beta");
    const campaign::JobConfig* job = nullptr;
    for (const campaign::ScenarioJob& j : beta->jobs)
      if (j.name == "beta-3.2-backbone") job = &j.config;
    if (job == nullptr) {
      std::fprintf(stderr, "perf_microbench: backbone1k job not found\n");
      return 1;
    }
    const sim::Network net = campaign::build_network(job->topology);
    sim::SimulationConfig cfg = job->sim;
    cfg.seed = campaign::substream_seed(campaign::job_hash(*job));
    print_tickloop(out, "backbone1k", net.num_nodes(), cfg.seed,
                   fastest_sample(net, cfg, job->runs, sim::run_seed),
                   /*last=*/true);
  }

  std::fprintf(out, "]\n");
  if (out != stdout) std::fclose(out);
  return 0;
}

// ---- --obs_json mode ----

/// In-process overhead bounds, asserted every run on sparse10k samples
/// of at least kMinSampleSeconds each; the measured ratios land in the
/// JSON for trend tracking.
constexpr double kMetricsOverheadBound = 1.25;
constexpr double kTraceOverheadBound = 2.00;

/// Span-profiler bound. Spans are measured on a ShardedSimulation run
/// two orders of magnitude longer than one sparse10k run (the profiler
/// records ~5 spans per *tick*, not per event, so its fixed cost only
/// reads against a run long enough for percent-level resolution); the
/// disabled path is a single null check and the enabled path is two
/// clock reads per phase, so 5% headroom is generous.
constexpr double kSpanOverheadBound = 1.05;

/// Sharded runs per span-point sample: each takes ~50 ms, so three
/// clear kMinSampleSeconds.
constexpr int kSpanRunsPerSample = 3;

struct SpanSample {
  double seconds = 0.0;  ///< summed run() wall time
  std::uint64_t ticks = 0;
  std::uint64_t ever_infected = 0;
  std::uint64_t spans = 0;  ///< spans captured per run
};

/// Wall-times the sharded engine with the span profiler on or off.
/// One shard keeps the measurement serial (no scheduler noise from
/// phase barriers) and maximizes span density per wall second — the
/// worst case for profiler overhead.
SpanSample run_spans_sample(const sim::Network& net,
                            const sim::SimulationConfig& cfg, bool spans_on) {
  using clock = std::chrono::steady_clock;
  SpanSample sample;
  for (int run = 0; run < kSpanRunsPerSample; ++run) {
    // Fresh profiler per run so every measured run pays the same
    // buffer-allocation cost a real --profile-out run pays.
    obs::Profiler profiler;
    obs::Sink sink;
    if (spans_on) sink.spans = profiler.track("sim");
    sim::ShardedSimulation sim(net, cfg, /*num_shards=*/1, sink);
    const auto start = clock::now();
    const sim::RunResult result = sim.run();
    sample.seconds +=
        std::chrono::duration<double>(clock::now() - start).count();
    sample.ticks = result.perf.ticks;
    sample.ever_infected = result.final_ever_infected_count;
    sample.spans = spans_on ? profiler.total_spans() : 0;
  }
  return sample;
}

int run_obs_json(const char* path) {
  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "perf_microbench: cannot open %s\n", path);
    return 1;
  }

  Rng rng(7);
  const sim::Network net(graph::make_barabasi_albert(kSparseNodes, 2, rng));
  const sim::SimulationConfig cfg = sparse_config();
  const std::size_t runs = sparse_runs_per_sample(net, cfg);

  // Modes alternate sample by sample, so drift in machine load reaches
  // all three alike.
  constexpr ObsMode kModes[] = {ObsMode::kOff, ObsMode::kMetrics,
                                ObsMode::kTrace};
  SparseSample best[3];
  decltype(SparseSample::runs) first_runs;
  bool same_trajectories = true;
  for (int i = 0; i < kSparseSamples; ++i)
    for (int m = 0; m < 3; ++m) {
      SparseSample sample = run_sparse_sample(net, cfg, runs, kModes[m]);
      // The sink must never perturb the simulation: every run has the
      // same trajectory in all three modes (the sink shares no state
      // with the RNG stream).
      if (i == 0 && m == 0) first_runs = sample.runs;
      same_trajectories &= sample.runs == first_runs;
      if (i == 0 || sample.seconds < best[m].seconds)
        best[m] = std::move(sample);
    }
  const SparseSample& off = best[0];
  const SparseSample& metrics = best[1];
  const SparseSample& trace = best[2];

  // Span point: the sharded engine on a denser, longer run (~50 ms, vs
  // ~0.1 ms for one sparse10k run) so the per-tick span cost resolves
  // against the 1.05x bound instead of drowning in timer noise. Off and
  // on samples alternate, like the sparse modes.
  sim::SimulationConfig span_cfg;
  span_cfg.worm.contact_rate = 1.0;
  span_cfg.worm.hit_probability = 0.5;
  span_cfg.worm.initial_infected = 10;
  span_cfg.max_ticks = 60.0;
  span_cfg.stop_when_saturated = false;
  span_cfg.seed = 3;
  Rng span_rng(7);
  const sim::Network span_net(
      graph::make_barabasi_albert(20'000, 2, span_rng));
  SpanSample spans_off, spans_on;
  for (int i = 0; i < kSparseSamples; ++i) {
    const SpanSample off_sample = run_spans_sample(span_net, span_cfg, false);
    const SpanSample on_sample = run_spans_sample(span_net, span_cfg, true);
    if (i == 0 || off_sample.seconds < spans_off.seconds)
      spans_off = off_sample;
    if (i == 0 || on_sample.seconds < spans_on.seconds) spans_on = on_sample;
  }

  bool ok = true;
  if (!same_trajectories) {
    std::fprintf(stderr,
                 "perf_microbench: obs sink changed a run's trajectory\n");
    ok = false;
  }
  for (const double seconds :
       {off.seconds, metrics.seconds, trace.seconds, spans_off.seconds,
        spans_on.seconds})
    if (seconds < kMinSampleSeconds) {
      std::fprintf(stderr,
                   "perf_microbench: a %.3f s sample is shorter than "
                   "%.1f s; its ratio is timer noise\n",
                   seconds, kMinSampleSeconds);
      ok = false;
    }
  const double metrics_ratio = metrics.seconds / off.seconds;
  const double trace_ratio = trace.seconds / off.seconds;
  if (metrics_ratio > kMetricsOverheadBound) {
    std::fprintf(stderr,
                 "perf_microbench: metrics-only overhead %.3fx exceeds "
                 "bound %.2fx\n",
                 metrics_ratio, kMetricsOverheadBound);
    ok = false;
  }
  if (trace_ratio > kTraceOverheadBound) {
    std::fprintf(stderr,
                 "perf_microbench: trace overhead %.3fx exceeds bound "
                 "%.2fx\n",
                 trace_ratio, kTraceOverheadBound);
    ok = false;
  }
  // Same contract for spans: the profiler must not perturb the sharded
  // trajectory, and its cost must stay under the tight bound.
  if (spans_on.ticks != spans_off.ticks ||
      spans_on.ever_infected != spans_off.ever_infected) {
    std::fprintf(stderr,
                 "perf_microbench: span profiler changed the trajectory "
                 "(off %llu/%llu, on %llu/%llu)\n",
                 static_cast<unsigned long long>(spans_off.ticks),
                 static_cast<unsigned long long>(spans_off.ever_infected),
                 static_cast<unsigned long long>(spans_on.ticks),
                 static_cast<unsigned long long>(spans_on.ever_infected));
    ok = false;
  }
  const double spans_ratio = spans_on.seconds / spans_off.seconds;
  if (spans_ratio > kSpanOverheadBound) {
    std::fprintf(stderr,
                 "perf_microbench: span overhead %.3fx exceeds bound "
                 "%.2fx\n",
                 spans_ratio, kSpanOverheadBound);
    ok = false;
  }

  const double n = static_cast<double>(runs);
  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"sparse10k-obs\",\n"
               "  \"nodes\": %zu,\n"
               "  \"samples\": %d,\n"
               "  \"runs_per_sample\": %zu,\n"
               "  \"first_seed\": %llu,\n"
               "  \"ticks_per_run\": %.3f,\n"
               "  \"final_ever_infected_per_run\": %.3f,\n"
               "  \"off\": {\"sample_seconds\": %.6f, "
               "\"seconds_per_run\": %.9f, \"ticks_per_sec\": %.1f},\n"
               "  \"metrics\": {\"sample_seconds\": %.6f, "
               "\"seconds_per_run\": %.9f, \"overhead_vs_off\": %.4f},\n"
               "  \"trace\": {\"sample_seconds\": %.6f, "
               "\"seconds_per_run\": %.9f, \"overhead_vs_off\": %.4f, "
               "\"events_per_run\": %.3f},\n"
               "  \"spans\": {\"scenario\": \"sharded20k\", "
               "\"runs_per_sample\": %d, \"sample_seconds_off\": %.6f, "
               "\"sample_seconds_on\": %.6f, \"overhead_vs_off\": %.4f, "
               "\"spans_per_run\": %llu},\n"
               "  \"bounds\": {\"min_sample_seconds\": %.2f, "
               "\"metrics\": %.2f, \"trace\": %.2f, \"spans\": %.2f},\n"
               "  \"pass\": %s\n"
               "}\n",
               kSparseNodes, kSparseSamples, runs,
               static_cast<unsigned long long>(cfg.seed),
               static_cast<double>(off.perf.ticks) / n,
               static_cast<double>(off.ever_infected) / n,
               off.seconds, off.seconds / n,
               static_cast<double>(off.perf.ticks) / off.seconds,
               metrics.seconds, metrics.seconds / n, metrics_ratio,
               trace.seconds, trace.seconds / n, trace_ratio,
               static_cast<double>(trace.events) / n,
               kSpanRunsPerSample, spans_off.seconds, spans_on.seconds,
               spans_ratio, static_cast<unsigned long long>(spans_on.spans),
               kMinSampleSeconds, kMetricsOverheadBound, kTraceOverheadBound,
               kSpanOverheadBound,
               ok ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}

// ---- --scale_json mode ----

/// Floor on sharded-engine throughput (node-ticks per wall second,
/// multi-shard run). Deliberately an order of magnitude below what the
/// engine delivers on CI-class hardware — the gate exists to catch an
/// accidental return to O(N²) work per tick, not scheduler noise.
constexpr double kScaleThroughputFloor = 1.0e6;

/// Ceiling on the all-pairs network build (graph + routing table), in
/// nanoseconds per ordered node pair. The per-destination routing build
/// measures 45–55 ns/pair at 5·10³–10⁴ nodes on a 4-vCPU Xeon VM; the
/// hop-by-hop path walk it replaced took 380–490, so the gate fails on
/// a return to per-pair path walks without tripping on noise.
constexpr double kBuildCeilingNsPerPair = 200.0;

struct ScalePoint {
  std::size_t nodes = 0;
  std::uint64_t ticks = 0;
  std::uint64_t final_ever_infected = 0;
  std::uint64_t total_scan_packets = 0;
  bool tree_routed = false;
  bool identical_across_shards = false;
  double seconds_build = 0.0;  ///< graph + network (routing) construction
  double seconds_run = 0.0;    ///< multi-shard simulation wall time
  double node_ticks_per_sec = 0.0;
  /// Scan packets the worm sent per wall second. Only infected nodes
  /// scan, so this is the work the run did; n·ticks/s overstates it.
  double scan_packets_per_sec = 0.0;

  /// Build time per ordered node pair, the all-pairs table's unit.
  double build_ns_per_pair() const {
    return seconds_build * 1e9 /
           (static_cast<double>(nodes) * static_cast<double>(nodes - 1));
  }
};

/// One point on the nodes-scaling curve: build BA(n, 2), run the
/// sharded engine at 1 shard and at `shards`, demand identical
/// trajectories, report multi-shard throughput.
ScalePoint run_scale_point(std::size_t n, std::size_t shards) {
  using clock = std::chrono::steady_clock;
  ScalePoint point;
  point.nodes = n;

  const auto build_start = clock::now();
  Rng rng(7);
  const sim::Network net(graph::make_barabasi_albert(n, 2, rng));
  point.seconds_build =
      std::chrono::duration<double>(clock::now() - build_start).count();
  point.tree_routed = !net.has_routing_table();

  sim::SimulationConfig cfg;
  cfg.worm.contact_rate = 1.0;
  cfg.worm.hit_probability = 0.5;
  cfg.worm.initial_infected =
      static_cast<std::uint32_t>(std::max<std::size_t>(10, n / 100000));
  cfg.max_ticks = 15.0;
  cfg.stop_when_saturated = false;
  cfg.seed = 3;

  const sim::RunResult one = sim::ShardedSimulation(net, cfg, 1).run();
  const auto run_start = clock::now();
  const sim::RunResult many = sim::ShardedSimulation(net, cfg, shards).run();
  point.seconds_run =
      std::chrono::duration<double>(clock::now() - run_start).count();

  point.identical_across_shards =
      one.ever_infected.values() == many.ever_infected.values() &&
      one.active_infected.values() == many.active_infected.values() &&
      one.total_scan_packets == many.total_scan_packets &&
      one.final_ever_infected_count == many.final_ever_infected_count &&
      one.perf.packets_forwarded == many.perf.packets_forwarded;
  point.ticks = many.perf.ticks;
  point.final_ever_infected = many.final_ever_infected_count;
  point.total_scan_packets = many.total_scan_packets;
  point.node_ticks_per_sec = static_cast<double>(n) *
                             static_cast<double>(point.ticks) /
                             point.seconds_run;
  point.scan_packets_per_sec =
      static_cast<double>(point.total_scan_packets) / point.seconds_run;
  return point;
}

int run_scale_json(const char* path, bool small) {
  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "perf_microbench: cannot open %s\n", path);
    return 1;
  }

  // The small curve keeps its all-pairs point at 5k nodes: the build is
  // O(n·(n+E)), ~1.1 s at 5k against ~4.5 s at 10k, and the fast lane
  // wants the shorter one.
  const std::vector<std::size_t> curve =
      small ? std::vector<std::size_t>{5'000, 50'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  const std::size_t shards =
      std::max(2u, std::thread::hardware_concurrency());

  bool ok = true;
  std::vector<ScalePoint> points;
  points.reserve(curve.size());
  for (const std::size_t n : curve) {
    const ScalePoint point = run_scale_point(n, shards);
    if (!point.identical_across_shards) {
      std::fprintf(stderr,
                   "perf_microbench: %zu-node trajectory differs between "
                   "1 and %zu shards\n",
                   n, shards);
      ok = false;
    }
    if (point.node_ticks_per_sec < kScaleThroughputFloor) {
      std::fprintf(stderr,
                   "perf_microbench: %zu-node throughput %.0f "
                   "node-ticks/sec below floor %.0f\n",
                   n, point.node_ticks_per_sec, kScaleThroughputFloor);
      ok = false;
    }
    if (!point.tree_routed &&
        point.build_ns_per_pair() > kBuildCeilingNsPerPair) {
      std::fprintf(stderr,
                   "perf_microbench: %zu-node all-pairs build %.3f s "
                   "(%.0f ns/pair) exceeds ceiling %.0f ns/pair\n",
                   n, point.seconds_build, point.build_ns_per_pair(),
                   kBuildCeilingNsPerPair);
      ok = false;
    }
    points.push_back(point);
  }

  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"nodes-scaling\",\n"
               "  \"variant\": \"%s\",\n"
               "  \"shards\": %zu,\n"
               "  \"throughput_floor_node_ticks_per_sec\": %.0f,\n"
               "  \"build_ceiling_ns_per_pair\": %.0f,\n"
               "  \"points\": [\n",
               small ? "small" : "full", shards, kScaleThroughputFloor,
               kBuildCeilingNsPerPair);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    // The per-pair figure only describes the all-pairs build.
    char per_pair[32] = "null";
    if (!p.tree_routed)
      std::snprintf(per_pair, sizeof per_pair, "%.1f", p.build_ns_per_pair());
    std::fprintf(out,
                 "    {\"nodes\": %zu, \"ticks\": %llu, "
                 "\"final_ever_infected\": %llu, "
                 "\"total_scan_packets\": %llu, "
                 "\"tree_routed\": %s, "
                 "\"identical_across_shards\": %s, "
                 "\"seconds_build\": %.6f, \"build_ns_per_pair\": %s, "
                 "\"seconds_run\": %.6f, "
                 "\"node_ticks_per_sec\": %.1f, "
                 "\"scan_packets_per_sec\": %.1f}%s\n",
                 p.nodes,
                 static_cast<unsigned long long>(p.ticks),
                 static_cast<unsigned long long>(p.final_ever_infected),
                 static_cast<unsigned long long>(p.total_scan_packets),
                 p.tree_routed ? "true" : "false",
                 p.identical_across_shards ? "true" : "false",
                 p.seconds_build, per_pair, p.seconds_run,
                 p.node_ticks_per_sec, p.scan_packets_per_sec,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"pass\": %s\n"
               "}\n",
               ok ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}

// ---- --estimator_json mode ----

/// Hard ceiling on compact detector state: the backend exists to track
/// 10^7 hosts in tens of megabytes, so a few bytes per host, ceiling 8.
constexpr double kBytesPerHostCeiling = 8.0;
/// Floor on the raw store observe loop (flows per wall second,
/// single-threaded). An order of magnitude below what the store
/// delivers — the gate catches an accidental O(v) or allocating path
/// in observe, not scheduler noise.
constexpr double kObserveFloorFlowsPerSec = 2.0e6;
/// Floor on compact-backend serve ingest. Half of BENCH_serve.json's
/// exact-backend floor: this point tracks a 2^20-host universe (16x
/// BENCH_serve's), so per-flow cost carries an extra cache-miss tax;
/// the floor still sits well under the ~1.8M flows/s delivered.
constexpr double kServeFloorFlowsPerSec = 5.0e5;

struct EstimatorPoint {
  std::size_t hosts = 0;
  double bytes_per_host = 0.0;
  std::size_t memory_bytes = 0;
  std::uint64_t flows = 0;
  std::uint64_t strikes = 0;
  double seconds_observe = 0.0;
  double observe_flows_per_sec = 0.0;
};

/// Feeds `flows` synthetic observations (scanning minority + background
/// chatter, several window rolls) through a compact store sized for
/// `hosts`, timing the observe loop.
EstimatorPoint run_estimator_point(std::size_t hosts, std::uint64_t flows) {
  using clock = std::chrono::steady_clock;
  quarantine::DetectorSettings settings;
  settings.window = 5.0;
  settings.contact_rate_threshold = 0.0;
  settings.distinct_dest_threshold = 0.0;
  settings.failure_ratio_threshold = 0.7;
  settings.failure_min_attempts = 3;
  const quarantine::CompactSettings compact;  // production defaults

  quarantine::CompactEstimatorStore store(hosts, settings, compact);
  EstimatorPoint point;
  point.hosts = hosts;
  point.bytes_per_host = store.bytes_per_host();
  point.memory_bytes = store.memory_bytes();
  point.flows = flows;

  const double dt = 25.0 / static_cast<double>(flows);  // 5 window rolls
  const auto start = clock::now();
  for (std::uint64_t i = 0; i < flows; ++i) {
    const std::uint64_t r = mix64(i * 0x9e3779b97f4a7c15ULL + 1);
    const auto host = static_cast<std::uint32_t>(r % hosts);
    const bool worm = host % 97 == 0;
    const std::uint64_t dest = worm ? mix64(r) : host % 1024;
    const quarantine::ObservationOutcome out =
        store.observe(host, static_cast<double>(i) * dt, dest, worm);
    point.strikes += out.strike ? 1 : 0;
  }
  point.seconds_observe =
      std::chrono::duration<double>(clock::now() - start).count();
  point.observe_flows_per_sec =
      static_cast<double>(flows) / point.seconds_observe;
  return point;
}

int run_estimator_json(const char* path) {
  std::FILE* out = path != nullptr ? std::fopen(path, "w") : stdout;
  if (out == nullptr) {
    std::fprintf(stderr, "perf_microbench: cannot open %s\n", path);
    return 1;
  }

  bool ok = true;
  std::vector<EstimatorPoint> points;
  for (const auto& [hosts, flows] :
       {std::pair<std::size_t, std::uint64_t>{1'000'000, 4'000'000},
        {10'000'000, 8'000'000}}) {
    const EstimatorPoint point = run_estimator_point(hosts, flows);
    if (point.bytes_per_host > kBytesPerHostCeiling) {
      std::fprintf(stderr,
                   "perf_microbench: %zu-host store %.2f bytes/host "
                   "over ceiling %.1f\n",
                   hosts, point.bytes_per_host, kBytesPerHostCeiling);
      ok = false;
    }
    if (point.observe_flows_per_sec < kObserveFloorFlowsPerSec) {
      std::fprintf(stderr,
                   "perf_microbench: %zu-host observe %.0f flows/sec "
                   "below floor %.0f\n",
                   hosts, point.observe_flows_per_sec,
                   kObserveFloorFlowsPerSec);
      ok = false;
    }
    if (point.strikes == 0) {
      std::fprintf(stderr,
                   "perf_microbench: %zu-host run produced no strikes — "
                   "the observe loop is not exercising the detector\n",
                   hosts);
      ok = false;
    }
    points.push_back(point);
  }

  // Serve pipeline on the compact backend: same synthetic workload
  // shape as BENCH_serve.json's 4-shard point, same throughput floor.
  serve::SyntheticConfig synth;
  synth.flows = 2'000'000;
  synth.hosts = 1u << 20;
  synth.worm_fraction = 0.01;
  serve::ServeOptions options;
  options.shards = 4;
  options.num_hosts = synth.hosts;
  options.quarantine.enabled = true;
  options.quarantine.detector.window = 0.5;
  options.quarantine.detector.failure_ratio_threshold = 0.7;
  options.quarantine.detector.failure_min_attempts = 3;
  options.quarantine.policy.base_period = 5.0;
  options.quarantine.estimator_backend =
      quarantine::EstimatorBackend::kSharedBitmap;
  serve::ServeServer server(options);
  serve::SyntheticFlowSource source(synth);
  const serve::ServeSummary summary = server.run(source, nullptr, nullptr);
  if (summary.flows_per_sec < kServeFloorFlowsPerSec) {
    std::fprintf(stderr,
                 "perf_microbench: compact serve %.0f flows/sec below "
                 "floor %.0f\n",
                 summary.flows_per_sec, kServeFloorFlowsPerSec);
    ok = false;
  }

  std::fprintf(out,
               "{\n"
               "  \"scenario\": \"estimator-memory\",\n"
               "  \"backend\": \"shared_bitmap\",\n"
               "  \"exact_state_bytes_per_host\": %zu,\n"
               "  \"bytes_per_host_ceiling\": %.1f,\n"
               "  \"observe_floor_flows_per_sec\": %.0f,\n"
               "  \"serve_floor_flows_per_sec\": %.0f,\n"
               "  \"points\": [\n",
               sizeof(quarantine::HostDetector), kBytesPerHostCeiling,
               kObserveFloorFlowsPerSec, kServeFloorFlowsPerSec);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const EstimatorPoint& p = points[i];
    std::fprintf(out,
                 "    {\"hosts\": %zu, \"bytes_per_host\": %.3f, "
                 "\"memory_bytes\": %zu, \"flows\": %llu, "
                 "\"strikes\": %llu, \"seconds_observe\": %.6f, "
                 "\"observe_flows_per_sec\": %.1f}%s\n",
                 p.hosts, p.bytes_per_host, p.memory_bytes,
                 static_cast<unsigned long long>(p.flows),
                 static_cast<unsigned long long>(p.strikes),
                 p.seconds_observe, p.observe_flows_per_sec,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"serve_point\": {\"shards\": %zu, \"hosts\": %u, "
               "\"flows\": %llu, \"wall_seconds\": %.6f, "
               "\"flows_per_sec\": %.1f, \"detected_targets\": %.0f, "
               "\"false_positive_hosts\": %.0f},\n"
               "  \"pass\": %s\n"
               "}\n",
               options.shards, synth.hosts,
               static_cast<unsigned long long>(summary.flows_ingested),
               summary.wall_seconds, summary.flows_per_sec,
               summary.report.detected_targets,
               summary.report.false_positive_hosts,
               ok ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf_json") == 0) return run_perf_json(nullptr);
    if (std::strncmp(argv[i], "--perf_json=", 12) == 0)
      return run_perf_json(argv[i] + 12);
    if (std::strcmp(argv[i], "--obs_json") == 0) return run_obs_json(nullptr);
    if (std::strncmp(argv[i], "--obs_json=", 11) == 0)
      return run_obs_json(argv[i] + 11);
    if (std::strcmp(argv[i], "--scale_json") == 0)
      return run_scale_json(nullptr, /*small=*/false);
    if (std::strncmp(argv[i], "--scale_json=", 13) == 0)
      return run_scale_json(argv[i] + 13, /*small=*/false);
    if (std::strcmp(argv[i], "--scale_json_small") == 0)
      return run_scale_json(nullptr, /*small=*/true);
    if (std::strncmp(argv[i], "--scale_json_small=", 19) == 0)
      return run_scale_json(argv[i] + 19, /*small=*/true);
    if (std::strcmp(argv[i], "--estimator_json") == 0)
      return run_estimator_json(nullptr);
    if (std::strncmp(argv[i], "--estimator_json=", 17) == 0)
      return run_estimator_json(argv[i] + 17);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
