// campaign_cold: `dqctl campaign run` on the full built-in catalogue
// (fig01–fig04 plus the two ablation sweeps, 10 runs per simulation
// job) on 3 pool threads into an empty cache directory.
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <tuple>

#include "campaign/cache.hpp"
#include "campaign/job.hpp"
#include "campaign/scenarios.hpp"
#include "harness.hpp"

namespace dqb {
namespace {

namespace campaign = dq::campaign;

constexpr std::size_t kPoolThreads = 3;
// Paper: backbone rate limiting makes reaching 50% infection take about
// 5x as long as with no rate limiting.
constexpr double kFig4BandLow = 3.5;
constexpr double kFig4BandHigh = 7.5;

struct Rep {
  double wall_s = 0.0;
  std::vector<campaign::JobOutcome> outcomes;
  double fig4_ratio = 0.0;
  std::vector<double> job_ms;
  std::uint32_t run = 0;  ///< span run id (traced repetitions)
};

Rep campaign_rep(const std::vector<campaign::ScenarioDef>& catalogue,
                 const std::filesystem::path& cache_dir, Tracer* tracer,
                 std::uint32_t run) {
  Rep rep;
  std::mutex mu;
  campaign::RunOptions options;
  options.jobs = kPoolThreads;
  options.use_cache = true;
  options.cache_dir = cache_dir;
  options.on_job_event = [&](const campaign::JobEvent& e) {
    if (e.phase != campaign::JobPhase::kFinished &&
        e.phase != campaign::JobPhase::kFailed)
      return;
    const std::lock_guard<std::mutex> lock(mu);
    rep.job_ms.push_back(e.wall_seconds * 1e3);
  };
  dq::obs::Profiler profiler;
  if (tracer != nullptr) options.profiler = &profiler;

  const std::uint64_t t0 = now_ns();
  campaign::CampaignReport report = campaign::run_scenarios(catalogue, options);
  const std::uint64_t t1 = now_ns();
  rep.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.outcomes = std::move(report.outcomes);
  for (const dq::core::FigureData& fig : report.figures) {
    if (fig.id != "fig4") continue;
    const double none = fig.find("no-RL").time_to_reach(0.5);
    const double backbone = fig.find("backbone-RL").time_to_reach(0.5);
    rep.fig4_ratio = none > 0.0 && backbone > 0.0 ? backbone / none : 0.0;
  }
  if (tracer == nullptr) return rep;

  // One track per job (the pool threads run jobs one at a time); each
  // job's phases are children of its "job" span.
  SpanRec root;
  root.name = "campaign.run";
  root.track = "main";
  root.start_ns = t0;
  root.end_ns = t1;
  root.dur_ns = t1 - t0;
  root.run = run;
  const std::int64_t root_id = tracer->add(root);
  rep.run = run;
  for (const campaign::JobOutcome& o : rep.outcomes) {
    const dq::obs::SpanBuffer& buf = *profiler.track(o.name);
    std::int64_t job_id = root_id;
    for (const dq::obs::SpanRecord& r : buf.spans()) {
      if (std::string(r.name) != "job") continue;
      SpanRec s;
      s.name = "campaign.job";
      s.track = "job:" + o.name;
      s.start_ns = r.start_ns;
      s.end_ns = r.start_ns + r.dur_ns;
      s.dur_ns = r.dur_ns;
      s.parent = root_id;
      s.run = run;
      job_id = tracer->add(s);
    }
    dq::obs::SpanBuffer phases("phases", buf.spans().size());
    for (const dq::obs::SpanRecord& r : buf.spans())
      if (std::string(r.name) != "job")
        phases.record(r.name, r.start_ns, r.dur_ns);
    tracer->import_buffer(phases, "campaign.", "job:" + o.name, {job_id},
                          job_id, run);
  }
  return rep;
}

using TopologyKey = std::tuple<int, std::size_t, std::size_t, std::size_t,
                               std::size_t, double, double, std::uint64_t>;

TopologyKey key_of(const campaign::TopologySpec& t) {
  return {static_cast<int>(t.kind), t.nodes, t.ba_links, t.num_subnets,
          t.hosts_per_subnet, t.backbone_fraction, t.edge_fraction,
          t.build_seed};
}

}  // namespace

int run_campaign_cold(const Args& args) {
  Report report;
  Tracer tracer(args.trace);
  const std::uint64_t setup_start = now_ns();
  dq::core::ExperimentOptions experiment;
  experiment.seed = args.seed;
  const std::vector<campaign::ScenarioDef> catalogue =
      campaign::builtin_scenarios(experiment);
  const std::filesystem::path cache_dir =
      std::filesystem::path(args.work_dir) / "campaign-cache";
  // Reference: one cold campaign before timing. Every timed run must
  // reproduce its artifacts byte for byte (the determinism contract),
  // and it lets lazy process set-up finish before the clock starts.
  std::filesystem::remove_all(cache_dir);
  const Rep ref = campaign_rep(catalogue, cache_dir, nullptr, 0);
  std::map<std::string, std::string> ref_artifacts;
  for (const campaign::JobOutcome& o : ref.outcomes)
    ref_artifacts[o.name] = o.artifact;
  const double once_setup_s = seconds_since(setup_start);

  std::vector<double> rep_setup, wall, job_ms, traced_wall;
  std::vector<Rep> traced;
  std::size_t jobs = 0, failed = 0, hits = 0;
  std::vector<double> fig4;
  std::vector<campaign::JobOutcome> last_outcomes;
  std::size_t artifact_mismatches = 0;

  repeat_for(args.seconds, now_ns(), args.trace ? 2 : 1, 64, [&](std::size_t i) {
    const std::uint64_t t = now_ns();
    std::filesystem::remove_all(cache_dir);
    std::filesystem::create_directories(cache_dir);
    rep_setup.push_back(seconds_since(t));
    const bool trace_this = args.trace && i % 2 == 1;
    Rep rep = campaign_rep(catalogue, cache_dir,
                           trace_this ? &tracer : nullptr,
                           static_cast<std::uint32_t>(i));
    std::size_t rep_failed = 0;
    for (const campaign::JobOutcome& o : rep.outcomes) {
      rep_failed += o.ok() ? 0 : 1;
      hits += o.cache_hit ? 1 : 0;
      const auto it = ref_artifacts.find(o.name);
      if (it == ref_artifacts.end() || it->second != o.artifact)
        ++artifact_mismatches;
    }
    jobs += rep.outcomes.size();
    failed += rep_failed;
    report.attempted(rep.outcomes.size(), rep_failed);
    fig4.push_back(rep.fig4_ratio);
    if (trace_this) {
      traced_wall.push_back(rep.wall_s);
      traced.push_back(std::move(rep));
      return;
    }
    wall.push_back(rep.wall_s);
    job_ms.insert(job_ms.end(), rep.job_ms.begin(), rep.job_ms.end());
    last_outcomes = std::move(rep.outcomes);
  });
  std::filesystem::remove_all(cache_dir);

  report.check("no_failed_jobs", failed == 0,
               std::to_string(failed) + " of " + std::to_string(jobs) +
                   " jobs failed");
  report.check("every_job_a_cache_miss", hits == 0,
               std::to_string(hits) + " cache hits");
  report.check("artifacts_match_reference", artifact_mismatches == 0,
               std::to_string(artifact_mismatches) +
                   " artifacts differ from the reference cold run");
  const bool band = std::all_of(fig4.begin(), fig4.end(), [](double r) {
    return r >= kFig4BandLow && r <= kFig4BandHigh;
  });
  char detail[128];
  std::snprintf(detail, sizeof detail,
                "backbone-RL vs no-RL t50 slowdown %.2fx (band %.1f-%.1f)",
                fig4.empty() ? 0.0 : fig4.front(), kFig4BandLow, kFig4BandHigh);
  report.check("fig04_backbone_slowdown", band, detail);

  const double wall_mean = trimmed_mean(wall);
  report.series("wall_s", wall);
  const double per_rep_jobs =
      static_cast<double>(jobs) / static_cast<double>(wall.size() + traced.size());
  report.metric("setup_s", once_setup_s + median(rep_setup), "s",
                rep_setup.size(),
                "reference cold campaign once, median empty-cache prep");
  report.metric("wall_s", wall_mean, "s", wall.size(),
                "one cold run_scenarios, trimmed mean");
  report.metric("campaign_s", wall_mean, "s", wall.size());
  report.metric("throughput_per_s", per_rep_jobs / wall_mean, "1/s", wall.size(),
                "jobs completed per second");
  report_latency(report, job_ms, "per-job wall, start to artifact stored");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace) {
    std::vector<double> busy, job_max, share, simulate, serialize, residual,
        lookup, coverage;
    for (const Rep& r : traced) {
      const std::map<std::string, double> self = tracer.self_seconds(r.run);
      auto get = [&](const char* name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second;
      };
      double b = 0.0, mx = 0.0;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
      for (const SpanRec& s : tracer.spans()) {
        if (s.run != r.run || s.name != "campaign.job") continue;
        b += static_cast<double>(s.dur_ns) * 1e-9;
        mx = std::max(mx, static_cast<double>(s.dur_ns) * 1e-9);
        iv.emplace_back(s.start_ns, s.end_ns);
      }
      // Coverage: the share of the campaign wall during which at least
      // one job span was open.
      std::sort(iv.begin(), iv.end());
      std::uint64_t covered = 0, reach = 0;
      for (const auto& [a, e] : iv) {
        const std::uint64_t from = std::max(a, reach);
        if (e > from) covered += e - from;
        reach = std::max(reach, e);
      }
      busy.push_back(b);
      job_max.push_back(mx);
      share.push_back(b / (static_cast<double>(kPoolThreads) * r.wall_s));
      simulate.push_back(get("campaign.simulate"));
      serialize.push_back(get("campaign.serialize"));
      lookup.push_back(get("campaign.cache_lookup"));
      residual.push_back(get("campaign.job"));
      coverage.push_back(static_cast<double>(covered) * 1e-9 / r.wall_s);
    }
    const std::size_t n = traced.size();
    report.metric("campaign.job_busy_s", median(busy), "s", n,
                  "summed job spans");
    report.metric("campaign.job_max_s", median(job_max), "s", n);
    report.metric("campaign.pool_busy_share", median(share), "ratio", n,
                  "busy / (3 x campaign wall)");
    report.metric("campaign.simulate_s", median(simulate), "s", n);
    report.metric("campaign.serialize_s", median(serialize), "s", n);
    report.metric("campaign.cache_lookup_s", median(lookup), "s", n);
    report.metric("campaign.job_residual_s", median(residual), "s", n,
                  "job self time: build_network + store + artifact parse-back");

    // Isolated costs: build_network for every simulation job's topology
    // (each distinct spec built once, counted once per job) and
    // ArtifactCache::store of every artifact into a fresh directory.
    std::map<TopologyKey, double> built;
    double build_s = 0.0;
    dq::sim::PerfCounters perf;
    for (const campaign::JobOutcome& o : last_outcomes) {
      if (o.config.kind != campaign::JobConfig::Kind::kSimulation) continue;
      const TopologyKey key = key_of(o.config.topology);
      auto it = built.find(key);
      if (it == built.end()) {
        const std::uint64_t t = now_ns();
        const dq::sim::Network net = campaign::build_network(o.config.topology);
        it = built.emplace(key, seconds_since(t)).first;
      }
      build_s += it->second;
      if (o.sim_result) perf += o.sim_result->perf_counters;
    }
    report.metric("campaign.build_network_s", build_s, "s", built.size(),
                  "isolated, summed over simulation jobs");
    const std::filesystem::path store_dir =
        std::filesystem::path(args.work_dir) / "campaign-store";
    std::filesystem::remove_all(store_dir);
    const campaign::ArtifactCache store(store_dir);
    double bytes = 0.0;
    const std::uint64_t t = now_ns();
    for (const campaign::JobOutcome& o : last_outcomes) {
      store.store(o.hash, o.artifact);
      bytes += static_cast<double>(o.artifact.size());
    }
    report.metric("campaign.store_s", seconds_since(t), "s",
                  last_outcomes.size(), "isolated ArtifactCache::store");
    report.metric("campaign.artifact_bytes", bytes, "B");
    std::filesystem::remove_all(store_dir);
    report.metric("sim.link_hops", static_cast<double>(perf.link_hops), "count");
    report.metric("sim.packets_forwarded",
                  static_cast<double>(perf.packets_forwarded), "count");
    report.metric("sim.queue_events", static_cast<double>(perf.queue_events),
                  "count");
    report.metric("trace.coverage", median(coverage), "ratio", n,
                  "share of campaign wall with a job span open");
    report.metric("trace.overhead", median(traced_wall) / median(wall), "ratio", n,
                  "traced / untraced run_scenarios wall");

    const std::string path = args.work_dir + "/campaign_cold.spans.ndjson";
    tracer.write_ndjson(path);
    std::printf("# spans: %s\n# self time per traced run:\n", path.c_str());
    for (const auto& [name, s] : tracer.self_seconds())
      std::printf("#   %-24s %10.6f s\n", name.c_str(),
                  s / static_cast<double>(n));
  }
  return report.finish("campaign_cold");
}

}  // namespace dqb
