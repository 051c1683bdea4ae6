// The built-in scenario catalogue and its runner. The scenarios build
// on Section 5.4's setup in core/experiments.hpp (β, β₂,
// paper_sim_config and the paper's topologies), the same setup core's
// own simulated figures use.
#include "campaign/scenarios.hpp"

#include <chrono>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/result_io.hpp"
#include "stats/hash.hpp"
#include "stats/parallel.hpp"

namespace dq::campaign {

namespace {

/// The graph index of a job that is given no shared topology.
constexpr std::size_t kNoGraph = static_cast<std::size_t>(-1);

ScenarioDef fig01_scenario(const core::ExperimentOptions& options) {
  ScenarioDef s;
  s.name = "fig01";
  s.description =
      "Rate limiting on a 200-node star graph: analytical models plus "
      "four simulated deployments (paper Fig. 1)";
  {
    JobConfig job;
    job.kind = JobConfig::Kind::kAnalyticalFigure;
    job.figure_id = "fig1a";
    s.jobs.push_back({"analytical", std::move(job)});
  }
  auto sim_job = [&](const char* name, sim::SimulationConfig cfg) {
    JobConfig job;
    job.topology = core::star_200();
    job.sim = std::move(cfg);
    job.runs = options.sim_runs;
    s.jobs.push_back({name, std::move(job)});
  };
  sim_job("no-rl", core::paper_sim_config(options, 50.0));
  {
    sim::SimulationConfig cfg = core::paper_sim_config(options, 50.0);
    cfg.deployment.host_filter_fraction = 0.10;
    sim_job("leaf-rl-10", std::move(cfg));
  }
  {
    sim::SimulationConfig cfg = core::paper_sim_config(options, 50.0);
    cfg.deployment.host_filter_fraction = 0.30;
    sim_job("leaf-rl-30", std::move(cfg));
  }
  {
    // Hub rate limiting: the hub (node 0) forwards 6 packets per tick.
    sim::SimulationConfig cfg = core::paper_sim_config(options, 50.0);
    cfg.deployment.node_forward_cap = {0u, 6u};
    sim_job("hub-rl", std::move(cfg));
  }
  s.figures.push_back({"fig1a",
                       "Rate limiting on a star graph (analytical)",
                       "time",
                       "infected hosts",
                       "analytical",
                       {}});
  s.figures.push_back(
      {"fig1b",
       "Rate limiting on a 200-node star graph (simulation)",
       "time (ticks)",
       "fraction of nodes infected",
       "",
       {{"no-RL", "no-rl"},
        {"10%-leaf-RL", "leaf-rl-10"},
        {"30%-leaf-RL", "leaf-rl-30"},
        {"hub-RL", "hub-rl"}}});
  return s;
}

ScenarioDef fig02_scenario() {
  ScenarioDef s;
  s.name = "fig02";
  s.description =
      "Host-based deployment sweep, analytical (paper Fig. 2)";
  JobConfig job;
  job.kind = JobConfig::Kind::kAnalyticalFigure;
  job.figure_id = "fig2";
  s.jobs.push_back({"analytical", std::move(job)});
  s.figures.push_back({"fig2",
                       "Host-based rate limiting (analytical)",
                       "time",
                       "infected hosts",
                       "analytical",
                       {}});
  return s;
}

ScenarioDef fig03_scenario() {
  ScenarioDef s;
  s.name = "fig03";
  s.description =
      "Edge-router limiting across and within subnets, analytical "
      "(paper Fig. 3)";
  for (const char* id : {"fig3a", "fig3b"}) {
    JobConfig job;
    job.kind = JobConfig::Kind::kAnalyticalFigure;
    job.figure_id = id;
    s.jobs.push_back({id, std::move(job)});
    s.figures.push_back({id,
                         std::string("Edge-router limiting (") + id + ")",
                         "time",
                         "infected hosts",
                         id,
                         {}});
  }
  return s;
}

ScenarioDef fig04_scenario(const core::ExperimentOptions& options) {
  ScenarioDef s;
  s.name = "fig04";
  s.description =
      "Host vs edge vs backbone rate limiting on the 1000-node "
      "power-law topology (paper Fig. 4)";
  auto sim_job = [&](const char* name, sim::SimulationConfig cfg) {
    JobConfig job;
    job.topology = core::powerlaw_1000(options);
    job.sim = std::move(cfg);
    job.runs = options.sim_runs;
    s.jobs.push_back({name, std::move(job)});
  };
  sim_job("no-rl", core::paper_sim_config(options, 120.0));
  {
    sim::SimulationConfig cfg = core::paper_sim_config(options, 120.0);
    cfg.deployment.host_filter_fraction = 0.05;
    sim_job("host-rl-5", std::move(cfg));
  }
  {
    sim::SimulationConfig cfg = core::paper_sim_config(options, 120.0);
    cfg.deployment.edge_router_limited = true;
    sim_job("edge-rl", std::move(cfg));
  }
  {
    sim::SimulationConfig cfg = core::paper_sim_config(options, 120.0);
    cfg.deployment.backbone_limited = true;
    sim_job("backbone-rl", std::move(cfg));
  }
  s.figures.push_back(
      {"fig4",
       "Rate limiting in a power-law 1000-node topology (simulation)",
       "time (ticks)",
       "fraction of nodes infected",
       "",
       {{"no-RL", "no-rl"},
        {"5%-host-RL", "host-rl-5"},
        {"edge-RL", "edge-rl"},
        {"backbone-RL", "backbone-rl"}}});
  return s;
}

ScenarioDef ablation_beta_scenario(const core::ExperimentOptions& options) {
  ScenarioDef s;
  s.name = "ablation-beta";
  s.description =
      "Worm-speed sensitivity: backbone rate limiting vs beta in "
      "{0.1..3.2} on the 1000-node power-law topology";
  // The power-law graph of Fig. 4 under a salt of its own.
  TopologySpec topo = core::powerlaw_1000(options);
  topo.build_seed = options.seed ^ 0x510e527fade682d1ULL;
  ScenarioFigure fig{"ablation-beta",
                     "Backbone rate limiting vs worm speed "
                     "(1000-node power-law)",
                     "time (ticks)",
                     "fraction of nodes infected",
                     "",
                     {}};
  for (double beta : {0.1, 0.2, 0.4, 0.8, 1.6, 3.2}) {
    for (bool limited : {false, true}) {
      sim::SimulationConfig cfg = core::paper_sim_config(options, 200.0);
      cfg.worm.contact_rate = beta;
      cfg.deployment.backbone_limited = limited;
      JobConfig job;
      job.topology = topo;
      job.sim = std::move(cfg);
      job.runs = options.sim_runs;
      const std::string name = "beta-" + format_double(beta) +
                               (limited ? "-backbone" : "-none");
      fig.series.push_back({name, name});
      s.jobs.push_back({name, std::move(job)});
    }
  }
  s.figures.push_back(std::move(fig));
  return s;
}

ScenarioDef ablation_backbone_scenario(
    const core::ExperimentOptions& options) {
  ScenarioDef s;
  s.name = "ablation-backbone-depth";
  s.description =
      "Backbone designation depth: fraction of highest-degree nodes "
      "rate-limited, 1000-node power-law topology";
  ScenarioFigure fig{"ablation-backbone-depth",
                     "Slowdown vs backbone designation depth "
                     "(1000-node power-law)",
                     "time (ticks)",
                     "fraction of nodes infected",
                     "",
                     {}};
  for (double depth : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    TopologySpec topo = core::powerlaw_1000(options);
    topo.backbone_fraction = depth;
    topo.edge_fraction = 0.0;
    topo.build_seed = options.seed;
    sim::SimulationConfig cfg = core::paper_sim_config(options, 200.0);
    cfg.deployment.backbone_limited = depth > 0.0;
    JobConfig job;
    job.topology = topo;
    job.sim = std::move(cfg);
    job.runs = options.sim_runs;
    const std::string name = "depth-" + format_double(depth);
    fig.series.push_back({name, name});
    s.jobs.push_back({name, std::move(job)});
  }
  s.figures.push_back(std::move(fig));
  return s;
}

}  // namespace

std::vector<ScenarioDef> builtin_scenarios(
    const core::ExperimentOptions& options) {
  std::vector<ScenarioDef> catalogue;
  catalogue.push_back(fig01_scenario(options));
  catalogue.push_back(fig02_scenario());
  catalogue.push_back(fig03_scenario());
  catalogue.push_back(fig04_scenario(options));
  catalogue.push_back(ablation_beta_scenario(options));
  catalogue.push_back(ablation_backbone_scenario(options));
  return catalogue;
}

const ScenarioDef* find_scenario(const std::vector<ScenarioDef>& catalogue,
                                 const std::string& name) {
  for (const ScenarioDef& scenario : catalogue)
    if (scenario.name == name) return &scenario;
  return nullptr;
}

CampaignReport run_scenarios(const std::vector<ScenarioDef>& scenarios,
                             const RunOptions& options) {
  // The campaign's flat job list, named "<scenario>/<job>" and
  // deduplicated by content hash: an identical config runs once no
  // matter how many scenarios request it. local_index maps (scenario
  // index, local job name) to a list index. A simulation job without a
  // cached artifact also gets the index of its graph in `graphs`, one
  // entry per distinct graph key. A job whose artifact exists gets
  // none (if the artifact turns out corrupt, the job builds its own
  // network), so a warm campaign builds nothing.
  const ArtifactCache cache(options.cache_dir);
  std::vector<ScenarioJob> jobs;
  std::vector<std::size_t> job_graph;
  std::vector<TopologySpec> graphs;
  std::map<TopologySpec::GraphKey, std::size_t> graph_index;
  std::unordered_map<std::uint64_t, std::size_t> by_hash;
  std::unordered_set<std::string> names;
  std::vector<std::unordered_map<std::string, std::size_t>> local_index(
      scenarios.size());
  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (const ScenarioJob& job : scenarios[si].jobs) {
      const std::uint64_t hash = job_hash(job.config);
      auto [it, inserted] = by_hash.try_emplace(hash, jobs.size());
      if (inserted) {
        std::string name = scenarios[si].name + "/" + job.name;
        if (!names.insert(name).second)
          throw std::invalid_argument("campaign: duplicate job name " + name);
        jobs.push_back({std::move(name), job.config});
        job_graph.push_back(kNoGraph);
        if (job.config.kind == JobConfig::Kind::kSimulation &&
            !(options.use_cache && cache.contains(hash))) {
          const auto [g, fresh] = graph_index.try_emplace(
              job.config.topology.graph_key(), graphs.size());
          if (fresh) graphs.push_back(job.config.topology);
          job_graph.back() = g->second;
        }
      }
      if (!local_index[si].emplace(job.name, it->second).second)
        throw std::invalid_argument("scenario " + scenarios[si].name +
                                    ": duplicate job name " + job.name);
    }
  }

  CampaignReport report;
  report.outcomes.resize(jobs.size());
  const auto start = std::chrono::steady_clock::now();
  if (options.on_job_event) {
    for (std::size_t i = 0; i < jobs.size(); ++i)
      options.on_job_event({.index = i, .name = jobs[i].name});
  }
  // Each graph is built once, before any job runs, and shared: its jobs
  // only add their roles. A graph that fails to build is left null, so
  // each of its jobs builds its own and fails alone, as it would
  // without sharing.
  std::vector<std::shared_ptr<const sim::RoutedTopology>> topologies(
      graphs.size());
  std::vector<obs::SpanRecord> build_spans(graphs.size());
  parallel_for(graphs.size(), options.jobs, [&](std::size_t g) {
    const std::uint64_t begin = obs::span_clock_ns();
    try {
      topologies[g] = sim::build_topology(graphs[g]);
    } catch (const std::exception&) {
    }
    build_spans[g] = {"build_network", begin, obs::span_clock_ns() - begin};
  });
  // A SpanBuffer has one writer, so the builds are recorded afterwards.
  if (options.profiler != nullptr) {
    obs::SpanBuffer* track = options.profiler->track("topologies");
    for (const obs::SpanRecord& span : build_spans)
      track->record(span.name, span.start_ns, span.dur_ns);
  }
  // Job seeds come from content hashes, never from the schedule, so
  // the order in which threads take jobs cannot change any artifact.
  parallel_for(jobs.size(), options.jobs, [&](std::size_t i) {
    report.outcomes[i] = execute_job(
        jobs[i].name, jobs[i].config, options, i,
        job_graph[i] == kNoGraph ? nullptr : topologies[job_graph[i]]);
  });
  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.manifest = build_manifest(report.outcomes, options, total_wall);

  for (std::size_t si = 0; si < scenarios.size(); ++si) {
    for (const ScenarioFigure& spec : scenarios[si].figures) {
      const auto outcome_of =
          [&](const std::string& local) -> const JobOutcome* {
        auto it = local_index[si].find(local);
        if (it == local_index[si].end())
          throw std::invalid_argument("scenario " + scenarios[si].name +
                                      ": figure references unknown job " +
                                      local);
        return &report.outcomes[it->second];
      };
      if (!spec.analytical_job.empty()) {
        const JobOutcome* outcome = outcome_of(spec.analytical_job);
        if (outcome->ok() && outcome->figure)
          report.figures.push_back(*outcome->figure);
        continue;
      }
      core::FigureData fig{spec.id, spec.title, spec.x_label, spec.y_label,
                           {}};
      bool complete = true;
      for (const ScenarioFigure::SeriesRef& ref : spec.series) {
        const JobOutcome* outcome = outcome_of(ref.job);
        if (!outcome->ok() || !outcome->sim_result) {
          complete = false;
          break;
        }
        fig.series.push_back({ref.label, outcome->sim_result->ever_infected});
      }
      if (complete) report.figures.push_back(std::move(fig));
    }
  }
  return report;
}

}  // namespace dq::campaign
