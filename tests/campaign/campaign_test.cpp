// Campaign engine tests: content hashing, the artifact cache, how
// run_scenarios expands, runs and assembles the job list (failures and
// duplicate names included), the headline determinism matrix —
// artifacts must be byte-identical across --jobs 1 / --jobs 8 /
// cold-vs-warm cache and shared-vs-own network builds, with a warm
// rerun reporting every job as a cache hit — and the paper's shape
// claims for the catalogue's Figs. 1(b) and 4.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/json.hpp"
#include "campaign/result_io.hpp"
#include "campaign/scenarios.hpp"
#include "obs/span.hpp"
#include "stats/file.hpp"
#include "stats/hash.hpp"

namespace dq::campaign {
namespace {

// --- hashing and seeds ---

JobConfig small_sim_job(double contact_rate = 0.8) {
  JobConfig job;
  job.topology.kind = TopologySpec::Kind::kStar;
  job.topology.nodes = 50;
  job.topology.backbone_fraction = 1.0 / 50.0;
  job.topology.edge_fraction = 0.0;
  job.sim.worm.contact_rate = contact_rate;
  job.sim.worm.initial_infected = 1;
  job.sim.max_ticks = 10.0;
  job.sim.seed = 7;
  job.runs = 2;
  return job;
}

TEST(JobHash, EqualConfigsEqualHashes) {
  EXPECT_EQ(job_hash(small_sim_job()), job_hash(small_sim_job()));
}

TEST(JobHash, AnyFieldEditMovesTheHash) {
  const std::uint64_t base = job_hash(small_sim_job());
  std::set<std::uint64_t> hashes{base};
  JobConfig j = small_sim_job();
  j.sim.seed = 8;
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.runs = 3;
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.topology.nodes = 51;
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.sim.deployment.node_forward_cap = {0u, 6u};
  hashes.insert(job_hash(j));
  j = small_sim_job();
  j.sim.quarantine.enabled = true;
  hashes.insert(job_hash(j));
  EXPECT_EQ(hashes.size(), 6u) << "a config edit failed to move the hash";
}

TEST(JobHash, CanonicalFormIsPinned) {
  // The cache key of one small job, byte for byte. A change here
  // invalidates every cached artifact, so it must be deliberate: bump
  // `schema` in job_config_to_json whenever the engine's output changes
  // without a config field changing.
  const JobConfig job = small_sim_job();
  EXPECT_EQ(
      job_config_to_json(job).dump(),
      "{\"schema\":2,\"kind\":\"simulation\",\"topology\":{\"kind\":\"star\","
      "\"nodes\":50,\"ba_links\":2,\"num_subnets\":25,"
      "\"hosts_per_subnet\":40,\"backbone_fraction\":0.02,"
      "\"edge_fraction\":0,\"build_seed\":42},"
      "\"sim\":{\"worm\":{\"contact_rate\":0.8,"
      "\"filtered_contact_rate\":0.01,\"selection\":0,\"local_bias\":0.8,"
      "\"hitlist_size\":100,\"initial_infected\":1,"
      "\"hit_probability\":1},\"deployment\":{\"host_filter_fraction\":0,"
      "\"edge_router_limited\":false,\"backbone_limited\":false,"
      "\"base_link_capacity\":10,\"weight_by_routing_load\":true,"
      "\"min_link_capacity\":0.1,\"node_forward_cap\":null},"
      "\"response\":{\"kind\":0,\"reaction_time\":5,"
      "\"filters_everywhere\":false,\"start_on_detection\":false},"
      "\"detector\":{\"enabled\":false,\"observe_probability\":0.01,"
      "\"threshold\":10},\"immunization\":{\"enabled\":false,"
      "\"start_at_infected_fraction\":0.2,\"start_at_tick\":null,"
      "\"start_on_detection\":false,\"rate\":0.1,"
      "\"patch_susceptibles\":true},\"legit_rate_per_node\":0,"
      "\"predator\":{\"enabled\":false,\"start_tick\":5,\"initial\":1,"
      "\"contact_rate\":0.8,\"patch_delay\":10},"
      "\"quarantine\":{\"enabled\":false,\"start_on_detection\":false,"
      "\"window\":5,\"contact_rate_threshold\":25,"
      "\"distinct_dest_threshold\":20,\"failure_ratio_threshold\":0.5,"
      "\"failure_min_attempts\":2,\"strikes_to_quarantine\":1,"
      "\"base_period\":40,\"escalation\":4,\"max_period\":400,"
      "\"treatment\":0,\"throttle_rate\":0.01},\"max_ticks\":10,"
      "\"stop_when_saturated\":true,\"seed\":7},\"runs\":2}");
  EXPECT_EQ(hash_hex(job_hash(job)), "d1b3d028d7f3beb6");
}

TEST(JobHash, SubstreamSeedDecorrelatesNeighbouringHashes) {
  // SplitMix64 finalizer: consecutive inputs must not yield
  // consecutive outputs.
  const std::uint64_t a = substream_seed(1);
  const std::uint64_t b = substream_seed(2);
  EXPECT_NE(a + 1, b);
  EXPECT_NE(a, b);
}

// --- artifact cache ---

TEST(ArtifactCacheTest, StoreLoadRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-cache-roundtrip";
  std::filesystem::remove_all(dir);
  const ArtifactCache cache(dir);
  EXPECT_FALSE(cache.contains(42));
  EXPECT_FALSE(cache.load(42).has_value());
  cache.store(42, "{\"x\":1}");
  EXPECT_TRUE(cache.contains(42));
  EXPECT_EQ(cache.load(42).value(), "{\"x\":1}");
  // Overwrite is atomic and last-writer-wins.
  cache.store(42, "{\"x\":2}");
  EXPECT_EQ(cache.load(42).value(), "{\"x\":2}");
  std::filesystem::remove_all(dir);
}

// --- result round trips ---

TEST(ResultIo, AveragedResultSurvivesJsonRoundTrip) {
  RunOptions options;
  options.use_cache = false;
  const JobOutcome outcome = execute_job("rt", small_sim_job(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_TRUE(outcome.sim_result.has_value());

  const JsonValue encoded = averaged_result_to_json(*outcome.sim_result);
  const sim::AveragedResult decoded = averaged_result_from_json(
      JsonValue::parse(encoded.dump()));
  // Byte-stable: re-encoding the decoded result reproduces the exact
  // artifact text.
  EXPECT_EQ(averaged_result_to_json(decoded).dump(), encoded.dump());
  EXPECT_EQ(decoded.runs, outcome.sim_result->runs);
  EXPECT_EQ(decoded.perf_counters.ticks,
            outcome.sim_result->perf_counters.ticks);
}

// --- the determinism matrix ---

/// A tiny two-scenario campaign: two cheap simulations plus one
/// analytical figure, with one sim job shared verbatim between the
/// scenarios to exercise cross-scenario dedup.
std::vector<ScenarioDef> tiny_scenarios() {
  ScenarioDef first;
  first.name = "tiny-a";
  first.jobs.push_back({"sim", small_sim_job()});
  first.jobs.push_back({"fig", [] {
                          JobConfig job;
                          job.kind = JobConfig::Kind::kAnalyticalFigure;
                          job.figure_id = "fig2";
                          return job;
                        }()});
  ScenarioDef second;
  second.name = "tiny-b";
  second.jobs.push_back({"shared-sim", small_sim_job()});
  second.jobs.push_back({"faster", small_sim_job(1.6)});
  return {first, second};
}

TEST(Determinism, ArtifactsIdenticalAcrossThreadCountsAndCacheStates) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "dq-determinism";
  std::filesystem::remove_all(root);

  const auto artifacts_of = [&](const std::filesystem::path& cache_dir,
                                std::size_t jobs) {
    RunOptions options;
    options.jobs = jobs;
    options.cache_dir = cache_dir;
    return run_scenarios(tiny_scenarios(), options);
  };

  const CampaignReport serial = artifacts_of(root / "serial", 1);
  const CampaignReport parallel = artifacts_of(root / "parallel", 8);
  const CampaignReport warm = artifacts_of(root / "serial", 8);

  // Cross-scenario dedup: 4 declared jobs, 3 distinct configs.
  ASSERT_EQ(serial.outcomes.size(), 3u);
  ASSERT_EQ(parallel.outcomes.size(), 3u);

  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    SCOPED_TRACE(serial.outcomes[i].name);
    EXPECT_FALSE(serial.outcomes[i].cache_hit);
    EXPECT_FALSE(parallel.outcomes[i].cache_hit);
    // Warm rerun: every job must be served from cache...
    EXPECT_TRUE(warm.outcomes[i].cache_hit);
    // ...and every artifact must be byte-identical across thread
    // counts and cache temperature.
    EXPECT_EQ(serial.outcomes[i].artifact, parallel.outcomes[i].artifact);
    EXPECT_EQ(serial.outcomes[i].artifact, warm.outcomes[i].artifact);
    EXPECT_FALSE(serial.outcomes[i].artifact.empty());
  }

  // The manifest agrees with the outcomes on cache accounting.
  EXPECT_EQ(warm.manifest.at("cache_hits").as_uint(), 3u);
  EXPECT_EQ(warm.manifest.at("cache_misses").as_uint(), 0u);
  EXPECT_EQ(serial.manifest.at("cache_misses").as_uint(), 3u);

  // On-disk artifact files match across the two cold cache dirs.
  for (const JobOutcome& outcome : serial.outcomes) {
    std::ifstream a(ArtifactCache(root / "serial").path_for(outcome.hash),
                    std::ios::binary);
    std::ifstream b(ArtifactCache(root / "parallel").path_for(outcome.hash),
                    std::ios::binary);
    ASSERT_TRUE(a && b);
    std::string bytes_a((std::istreambuf_iterator<char>(a)),
                        std::istreambuf_iterator<char>());
    std::string bytes_b((std::istreambuf_iterator<char>(b)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes_a, bytes_b);
    EXPECT_EQ(bytes_a, outcome.artifact);
  }
  std::filesystem::remove_all(root);
}

TEST(Determinism, NoCacheRunMatchesCachedRun) {
  RunOptions no_cache;
  no_cache.use_cache = false;
  no_cache.jobs = 2;
  const CampaignReport a = run_scenarios(tiny_scenarios(), no_cache);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-nocache-compare";
  std::filesystem::remove_all(dir);
  RunOptions cached;
  cached.cache_dir = dir;
  cached.jobs = 2;
  const CampaignReport b = run_scenarios(tiny_scenarios(), cached);

  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i)
    EXPECT_EQ(a.outcomes[i].artifact, b.outcomes[i].artifact);
  std::filesystem::remove_all(dir);
}

TEST(Determinism, CorruptCacheArtifactsHealOnTheNextRun) {
  // A zero-byte artifact (what an OS crash after an un-fsync'd store
  // and rename can leave) and a garbage one both count as misses: the
  // next run recomputes them, overwrites the files with the cold bytes
  // and succeeds.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-cache-heal";
  std::filesystem::remove_all(dir);
  RunOptions options;
  options.cache_dir = dir;
  options.jobs = 2;
  const CampaignReport cold = run_scenarios(tiny_scenarios(), options);
  ASSERT_EQ(cold.outcomes.size(), 3u);
  const ArtifactCache cache(dir);
  const auto write = [&](std::uint64_t hash, const std::string& bytes) {
    std::ofstream out(cache.path_for(hash),
                      std::ios::binary | std::ios::trunc);
    out << bytes;
  };
  write(cold.outcomes[0].hash, "");              // the simulation job
  write(cold.outcomes[1].hash, "{\"x\":[1,");   // the analytical figure

  const CampaignReport healed = run_scenarios(tiny_scenarios(), options);
  EXPECT_EQ(healed.manifest.at("failures").as_uint(), 0u);
  EXPECT_EQ(healed.manifest.at("cache_hits").as_uint(), 1u);
  EXPECT_EQ(healed.manifest.at("metrics")
                .at("counters")
                .at("campaign.cache_corrupt")
                .as_uint(),
            2u);
  const std::vector<JsonValue>& jobs = healed.manifest.at("jobs").items();
  for (std::size_t i = 0; i < cold.outcomes.size(); ++i) {
    SCOPED_TRACE(cold.outcomes[i].name);
    const JobOutcome& o = healed.outcomes[i];
    EXPECT_TRUE(o.ok()) << o.error;
    EXPECT_EQ(o.cache_corrupt, i < 2);
    EXPECT_EQ(jobs[i].at("cache_corrupt").as_bool(), i < 2);
    EXPECT_EQ(o.cache_hit, i == 2);
    EXPECT_EQ(o.artifact, cold.outcomes[i].artifact);
    EXPECT_EQ(cache.load(o.hash).value(), cold.outcomes[i].artifact);
  }
  EXPECT_TRUE(healed.outcomes[0].sim_result.has_value());
  EXPECT_TRUE(healed.outcomes[1].figure.has_value());

  // Healed for good: the third run is all hits.
  const CampaignReport warm = run_scenarios(tiny_scenarios(), options);
  EXPECT_EQ(warm.manifest.at("cache_hits").as_uint(), 3u);
  EXPECT_EQ(
      warm.manifest.at("metrics").at("counters").find("campaign.cache_corrupt"),
      nullptr);
  std::filesystem::remove_all(dir);
}

TEST(Determinism, SharedTopologiesMatchOwnBuilds) {
  // fig01 (a star), fig04 and the backbone-depth sweep (two power-law
  // graphs): three distinct graphs, and six depth jobs that share one
  // graph under six different role cutoffs.
  const std::vector<ScenarioDef> catalogue =
      builtin_scenarios(core::ExperimentOptions::quick());
  std::vector<ScenarioDef> scenarios;
  for (const char* name : {"fig01", "fig04", "ablation-backbone-depth"})
    scenarios.push_back(*find_scenario(catalogue, name));
  const auto builds = [](const obs::Profiler& profiler) {
    std::uint64_t count = 0;
    for (const obs::PhaseStats& phase : profiler.aggregate())
      if (phase.name == "build_network") count += phase.count;
    return count;
  };
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "dq-shared-topology";
  std::filesystem::remove_all(root);

  for (const std::size_t jobs : {1u, 3u}) {
    SCOPED_TRACE(jobs);
    const std::filesystem::path dir = root / std::to_string(jobs);
    obs::Profiler cold_profile;
    RunOptions options;
    options.jobs = jobs;
    options.cache_dir = dir;
    options.profiler = &cold_profile;
    const CampaignReport cold = run_scenarios(scenarios, options);
    EXPECT_EQ(builds(cold_profile), 3u);
    ASSERT_EQ(cold.outcomes.size(), 15u);
    for (const JobOutcome& o : cold.outcomes) {
      SCOPED_TRACE(o.name);
      ASSERT_TRUE(o.ok()) << o.error;
      // The same config run alone, on a network it builds itself.
      RunOptions alone;
      alone.use_cache = false;
      const JobOutcome own = execute_job(o.name, o.config, alone);
      ASSERT_TRUE(own.ok()) << own.error;
      EXPECT_EQ(read_file(ArtifactCache(dir).path_for(o.hash)), own.artifact);
    }

    obs::Profiler warm_profile;
    options.profiler = &warm_profile;
    const CampaignReport warm = run_scenarios(scenarios, options);
    EXPECT_EQ(builds(warm_profile), 0u);
    EXPECT_EQ(warm.manifest.at("cache_hits").as_uint(), 15u);
  }
  std::filesystem::remove_all(root);
}

TEST(Scenarios, BuiltinCatalogueExpandsAndDedups) {
  const std::vector<ScenarioDef> catalogue =
      builtin_scenarios(core::ExperimentOptions::quick());
  EXPECT_NE(find_scenario(catalogue, "fig01"), nullptr);
  EXPECT_NE(find_scenario(catalogue, "ablation-beta"), nullptr);
  EXPECT_EQ(find_scenario(catalogue, "nope"), nullptr);
  // Every job in the catalogue hashes distinctly (no accidental
  // duplicate configs within a scenario), and each figure id has one
  // declaring scenario (`dqctl figure ID` looks figures up by id).
  std::set<std::string> figure_ids;
  for (const ScenarioDef& scenario : catalogue) {
    std::set<std::uint64_t> hashes;
    for (const ScenarioJob& job : scenario.jobs)
      EXPECT_TRUE(hashes.insert(job_hash(job.config)).second)
          << scenario.name << "/" << job.name;
    for (const ScenarioFigure& figure : scenario.figures)
      EXPECT_TRUE(figure_ids.insert(figure.id).second)
          << scenario.name << " redeclares " << figure.id;
  }
}

TEST(Scenarios, FailedJobIsReportedAndOnlyItsFigureIsLeftOut) {
  JobConfig bad;
  bad.kind = JobConfig::Kind::kAnalyticalFigure;
  bad.figure_id = "not-a-figure";
  JobConfig good = bad;
  good.figure_id = "fig2";
  // A graph that cannot be built fails its job, not the campaign.
  JobConfig bad_graph = small_sim_job();
  bad_graph.topology.nodes = 1;
  ScenarioDef s;
  s.name = "mixed";
  s.jobs.push_back({"bad", bad});
  s.jobs.push_back({"good", good});
  s.jobs.push_back({"sim", small_sim_job()});
  s.jobs.push_back({"bad-graph", bad_graph});
  s.figures.push_back({"broken", "", "", "", "bad", {}});
  s.figures.push_back({"fig2", "", "", "", "good", {}});
  s.figures.push_back({"sim-fig", "", "", "", "", {{"sim", "sim"}}});

  RunOptions options;
  options.use_cache = false;
  options.jobs = 3;
  const CampaignReport report = run_scenarios({s}, options);

  ASSERT_EQ(report.outcomes.size(), 4u);
  EXPECT_EQ(report.outcomes[0].name, "mixed/bad");
  EXPECT_FALSE(report.outcomes[0].ok());
  EXPECT_NE(report.outcomes[0].error.find("not-a-figure"), std::string::npos)
      << report.outcomes[0].error;
  EXPECT_TRUE(report.outcomes[1].ok()) << report.outcomes[1].error;
  EXPECT_TRUE(report.outcomes[1].figure.has_value());
  EXPECT_TRUE(report.outcomes[2].ok()) << report.outcomes[2].error;
  EXPECT_TRUE(report.outcomes[2].sim_result.has_value());
  EXPECT_NE(report.outcomes[3].error.find("make_star"), std::string::npos)
      << report.outcomes[3].error;
  EXPECT_EQ(report.manifest.at("failures").as_uint(), 2u);
  EXPECT_EQ(report.manifest.at("jobs").items()[0].at("error").as_string(),
            report.outcomes[0].error);

  std::vector<std::string> ids;
  for (const core::FigureData& fig : report.figures) ids.push_back(fig.id);
  EXPECT_EQ(ids, (std::vector<std::string>{"fig2", "sim-fig"}));
}

TEST(Scenarios, DuplicateJobNamesThrowBeforeAnyJobRuns) {
  std::size_t events = 0;
  RunOptions options;
  options.use_cache = false;
  options.on_job_event = [&](const JobEvent&) { ++events; };

  ScenarioDef differing;
  differing.name = "dup";
  differing.jobs.push_back({"x", small_sim_job()});
  differing.jobs.push_back({"x", small_sim_job(1.6)});
  EXPECT_THROW(run_scenarios({differing}, options), std::invalid_argument);

  ScenarioDef identical = differing;
  identical.jobs[1].config = small_sim_job();
  EXPECT_THROW(run_scenarios({identical}, options), std::invalid_argument);

  // Two scenarios of one name whose same-named jobs differ would give
  // two list entries the same "<scenario>/<job>" name.
  ScenarioDef first;
  first.name = "twin";
  first.jobs.push_back({"x", small_sim_job()});
  ScenarioDef second = first;
  second.jobs[0].config = small_sim_job(1.6);
  EXPECT_THROW(run_scenarios({first, second}, options),
               std::invalid_argument);
  EXPECT_EQ(events, 0u);
}

// --- the catalogue's simulated figures reproduce the paper ---

/// Figure `id` of catalogue scenario `scenario`, run cold at
/// ExperimentOptions::quick() with `runs` runs per curve: the shape
/// checks that hold only in expectation average enough runs that one
/// seed landing on a filtered leaf or a slow start cannot decide them.
core::FigureData catalogue_figure(const std::string& scenario,
                                  const std::string& id, std::size_t runs) {
  core::ExperimentOptions experiment = core::ExperimentOptions::quick();
  experiment.sim_runs = runs;
  const std::vector<ScenarioDef> catalogue = builtin_scenarios(experiment);
  RunOptions options;
  options.use_cache = false;
  const CampaignReport report =
      run_scenarios({*find_scenario(catalogue, scenario)}, options);
  for (const core::FigureData& fig : report.figures)
    if (fig.id == id) return fig;
  ADD_FAILURE() << scenario << " produced no " << id;
  return {};
}

TEST(Experiments, Fig1bSimulationAgreesDirectionally) {
  // 300 runs of a 200-node star take ~0.1 s.
  const core::FigureData fig = catalogue_figure("fig01", "fig1b", 300);
  const double t_none = fig.find("no-RL").time_to_reach(0.6);
  const double t_leaf = fig.find("30%-leaf-RL").time_to_reach(0.6);
  const double t_hub = fig.find("hub-RL").time_to_reach(0.6);
  ASSERT_GT(t_none, 0.0);
  EXPECT_GE(t_leaf, t_none * 0.9);
  EXPECT_GT(t_hub, t_leaf * 1.5);
}

TEST(Experiments, Fig4BackboneWinsBigger) {
  // The paper's 10 runs per curve.
  const core::FigureData fig = catalogue_figure("fig04", "fig4", 10);
  const double t_none = fig.find("no-RL").time_to_reach(0.5);
  const double t_host = fig.find("5%-host-RL").time_to_reach(0.5);
  const double t_edge = fig.find("edge-RL").time_to_reach(0.5);
  const double t_backbone = fig.find("backbone-RL").time_to_reach(0.5);
  ASSERT_GT(t_none, 0.0);
  ASSERT_GT(t_backbone, 0.0);
  EXPECT_NEAR(t_host, t_none, t_none * 0.3);  // 5% hosts ≈ negligible
  EXPECT_GT(t_edge, t_none);                  // slight improvement
  EXPECT_GT(t_backbone / t_none, 3.0);        // paper: ~5x
  EXPECT_LT(t_backbone / t_none, 9.0);
}

// --- observability through the campaign engine ---

TEST(CampaignObs, SimArtifactEmbedsDeterministicMetrics) {
  RunOptions options;
  options.use_cache = false;
  const JobOutcome outcome = execute_job("m", small_sim_job(), options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  ASSERT_FALSE(outcome.metrics.is_null());

  const JsonValue parsed = JsonValue::parse(outcome.artifact);
  const JsonValue* metrics = parsed.find("metrics");
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->dump(), outcome.metrics.dump());
  const JsonValue* counters = metrics->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->find("sim.runs")->as_uint(), small_sim_job().runs);
  EXPECT_GT(counters->find("sim.ticks")->as_uint(), 0u);
}

TEST(CampaignObs, CacheHitRestoresIdenticalMetricsSnapshot) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-cache";
  std::filesystem::remove_all(dir);
  RunOptions options;
  options.cache_dir = dir;
  const JobOutcome cold = execute_job("m", small_sim_job(), options);
  const JobOutcome warm = execute_job("m", small_sim_job(), options);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  ASSERT_FALSE(cold.metrics.is_null());
  EXPECT_EQ(cold.metrics.dump(), warm.metrics.dump());
  // Manifest totals are therefore cold/warm-identical too.
  EXPECT_EQ(merge_outcome_metrics({cold}).dump(),
            merge_outcome_metrics({warm}).dump());
  std::filesystem::remove_all(dir);
}

TEST(CampaignObs, ManifestMergesPerJobMetrics) {
  RunOptions options;
  options.use_cache = false;
  const CampaignReport report = run_scenarios(tiny_scenarios(), options);
  const JsonValue* merged = report.manifest.find("metrics");
  ASSERT_NE(merged, nullptr);
  // Two distinct sim jobs of `runs` runs each (the analytical job
  // contributes nothing).
  EXPECT_EQ(merged->find("counters")->find("sim.runs")->as_uint(),
            2 * small_sim_job().runs);
  EXPECT_EQ(report.manifest.at("schema").as_uint(), 2u);
}

TEST(CampaignObs, TraceFilesAreByteIdenticalAcrossThreadCounts) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-traces";
  std::filesystem::remove_all(root);

  const auto run_with = [&](std::size_t jobs,
                            const std::filesystem::path& trace_dir) {
    RunOptions options;
    options.jobs = jobs;
    options.use_cache = false;
    options.trace_dir = trace_dir;
    return run_scenarios(tiny_scenarios(), options);
  };
  const CampaignReport serial = run_with(1, root / "serial");
  const CampaignReport parallel = run_with(8, root / "parallel");

  const auto read = [](const std::filesystem::path& p) {
    std::ifstream f(p, std::ios::binary);
    EXPECT_TRUE(f) << p;
    return std::string((std::istreambuf_iterator<char>(f)),
                       std::istreambuf_iterator<char>());
  };
  std::size_t traced = 0;
  for (const JobOutcome& outcome : serial.outcomes) {
    if (outcome.config.kind != JobConfig::Kind::kSimulation) continue;
    std::string file = outcome.name + ".ndjson";
    for (char& c : file)
      if (c == '/') c = '_';
    const std::string a = read(root / "serial" / file);
    EXPECT_EQ(a, read(root / "parallel" / file));
    EXPECT_FALSE(a.empty());
    ++traced;
  }
  EXPECT_EQ(traced, 2u);
  // Tracing never changes artifact bytes.
  RunOptions untraced;
  untraced.use_cache = false;
  const CampaignReport plain = run_scenarios(tiny_scenarios(), untraced);
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i)
    EXPECT_EQ(plain.outcomes[i].artifact, serial.outcomes[i].artifact);
  std::filesystem::remove_all(root);
}

TEST(CampaignObs, TraceDroppedCountsEvictedEvents) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-dropped";
  std::filesystem::remove_all(dir);
  RunOptions options;
  options.use_cache = false;
  options.trace_dir = dir;
  // A fast worm against backbone limits on the power-law graph: its
  // only events are infections and link queueing, and a run emits more
  // of them than its ring holds.
  JobConfig big;
  big.sim.worm.contact_rate = 3.2;
  big.sim.deployment.backbone_limited = true;
  big.sim.max_ticks = 60.0;
  big.runs = 2;
  const JobOutcome outcome = execute_job("big", big, options);
  ASSERT_TRUE(outcome.ok()) << outcome.error;
  std::ifstream trace(dir / "big.ndjson", std::ios::binary);
  std::uint64_t lines = 0;
  for (std::string line; std::getline(trace, line);) ++lines;
  const JsonValue& counters = outcome.metrics.at("counters");
  const std::uint64_t events = counters.at("sim.infections").as_uint() +
                               counters.at("sim.queue_events").as_uint() +
                               counters.at("sim.queue_releases").as_uint();
  EXPECT_GT(outcome.trace_dropped, 0u);
  EXPECT_EQ(outcome.trace_dropped, events - lines);
  EXPECT_EQ(build_manifest({outcome}, options, 0.0)
                .at("jobs")
                .items()[0]
                .at("trace_dropped")
                .as_uint(),
            outcome.trace_dropped);
  EXPECT_EQ(execute_job("small", small_sim_job(), options).trace_dropped,
            0u);
  std::filesystem::remove_all(dir);
}

TEST(CampaignObs, JobEventsFollowTheLifecycle) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "dq-obs-events";
  std::filesystem::remove_all(dir);
  std::mutex mu;
  std::map<std::string, std::vector<JobPhase>> phases;
  RunOptions options;
  options.cache_dir = dir;
  options.jobs = 2;
  options.on_job_event = [&](const JobEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    phases[event.name].push_back(event.phase);
  };

  run_scenarios(tiny_scenarios(), options);
  for (const auto& [name, seq] : phases) {
    SCOPED_TRACE(name);
    ASSERT_EQ(seq.size(), 3u);
    EXPECT_EQ(seq[0], JobPhase::kQueued);
    EXPECT_EQ(seq[1], JobPhase::kStarted);
    EXPECT_EQ(seq[2], JobPhase::kFinished);
  }

  phases.clear();
  run_scenarios(tiny_scenarios(), options);  // warm: all cache hits
  for (const auto& [name, seq] : phases) {
    SCOPED_TRACE(name);
    ASSERT_EQ(seq.size(), 4u);
    EXPECT_EQ(seq[2], JobPhase::kCacheHit);
    EXPECT_EQ(seq[3], JobPhase::kFinished);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dq::campaign
