// sim_scale: the scale tier. BA(10^6, 2), tree-routed, with a
// random-scan SI worm (contact rate 1, hit probability 0.5, 10 seeds,
// no defence) run through saturation on ShardedSimulation at 3 shards.
// The network build is part of the timed operation.
//
// The run goes to a fixed horizon instead of stopping at saturation:
// when the last susceptible node falls is a coupon-collector tail that
// swings the tick count by a dozen between seeds, while the ticks after
// saturation cost the same for every seed. The horizon leaves room for
// the slowest seed; not saturating by then fails the run.
#include <algorithm>
#include <map>

#include "graph/builders.hpp"
#include "harness.hpp"
#include "simulator/network.hpp"
#include "simulator/sharded_sim.hpp"

namespace dqb {
namespace {

constexpr std::size_t kNodes = 1'000'000;
constexpr std::size_t kShards = 3;
constexpr double kHorizonTicks = 80.0;

dq::sim::SimulationConfig worm_config(std::uint64_t seed) {
  dq::sim::SimulationConfig cfg;
  cfg.worm.contact_rate = 1.0;
  cfg.worm.hit_probability = 0.5;
  cfg.worm.initial_infected = 10;
  cfg.max_ticks = kHorizonTicks;
  cfg.stop_when_saturated = false;
  cfg.seed = seed;
  return cfg;
}

struct Rep {
  double ba_s = 0.0, network_s = 0.0, ctor_s = 0.0, run_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> tick_ms;
  dq::sim::RunResult result;
  std::uint32_t run = 0;
};

/// Builds the network and runs the outbreak once. ShardedSimulation::run
/// is driven through step() so every tick is timed: its loop is
/// `while (tick < max_ticks) step();` here (no saturation stop), so the
/// final run() call only finalizes the result.
Rep sim_rep(std::uint64_t seed, std::size_t shards, Tracer* tracer,
            std::uint32_t run) {
  Rep rep;
  rep.run = run;
  const dq::sim::SimulationConfig cfg = worm_config(seed);
  dq::obs::SpanBuffer phases("sim", std::size_t{1} << 14);
  dq::obs::Sink sink;
  if (tracer != nullptr) sink.spans = &phases;

  const std::uint64_t t0 = now_ns();
  dq::Rng rng(seed);
  dq::graph::Graph g = dq::graph::make_barabasi_albert(kNodes, 2, rng);
  const std::uint64_t t1 = now_ns();
  const dq::sim::Network net(std::move(g));
  const std::uint64_t t2 = now_ns();
  dq::sim::ShardedSimulation sim(net, cfg, shards, sink);
  const std::uint64_t t3 = now_ns();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ticks;
  while (sim.tick() < cfg.max_ticks) {
    const std::uint64_t a = now_ns();
    sim.step();
    ticks.emplace_back(a, now_ns());
  }
  rep.result = sim.run();
  const std::uint64_t t4 = now_ns();

  rep.ba_s = static_cast<double>(t1 - t0) * 1e-9;
  rep.network_s = static_cast<double>(t2 - t1) * 1e-9;
  rep.ctor_s = static_cast<double>(t3 - t2) * 1e-9;
  rep.run_s = static_cast<double>(t4 - t3) * 1e-9;
  rep.wall_s = static_cast<double>(t4 - t0) * 1e-9;
  for (const auto& [a, b] : ticks)
    rep.tick_ms.push_back(static_cast<double>(b - a) * 1e-6);
  if (tracer == nullptr) return rep;

  auto span = [&](const char* name, std::uint64_t a, std::uint64_t b,
                  std::int64_t parent) {
    SpanRec s;
    s.name = name;
    s.track = "main";
    s.start_ns = a;
    s.end_ns = b;
    s.dur_ns = b - a;
    s.parent = parent;
    s.run = run;
    return tracer->add(s);
  };
  const std::int64_t root = span("sim.total", t0, t4, -1);
  span("graph.ba", t0, t1, root);
  span("sim.network", t1, t2, root);
  span("sim.ctor", t2, t3, root);
  const std::int64_t run_id = span("sim.run", t3, t4, root);
  std::vector<std::int64_t> tick_ids;
  for (const auto& [a, b] : ticks) tick_ids.push_back(span("sim.tick", a, b, run_id));
  tracer->import_buffer(phases, "sim.", "main", tick_ids, run_id, run);
  return rep;
}

bool same_outbreak(const dq::sim::RunResult& a, const dq::sim::RunResult& b) {
  return a.ever_infected.values() == b.ever_infected.values() &&
         a.active_infected.values() == b.active_infected.values() &&
         a.total_scan_packets == b.total_scan_packets &&
         a.final_ever_infected_count == b.final_ever_infected_count;
}

}  // namespace

int run_sim_scale(const Args& args) {
  Report report;
  Tracer tracer(args.trace);

  // Set-up: the 1-shard reference outbreak every timed run must match.
  const std::uint64_t setup_start = now_ns();
  const Rep ref = sim_rep(args.seed, 1, nullptr, 0);
  const double setup_s = seconds_since(setup_start);

  std::vector<double> wall, build, run_s, pps, tick_ms, traced_wall;
  std::vector<Rep> traced;
  bool identical = true, saturated = true;
  repeat_for(args.seconds, now_ns(), args.trace ? 2 : 1, 64, [&](std::size_t i) {
    const bool trace_this = args.trace && i % 2 == 1;
    Rep rep = sim_rep(args.seed, kShards, trace_this ? &tracer : nullptr,
                      static_cast<std::uint32_t>(i));
    identical = identical && same_outbreak(rep.result, ref.result);
    saturated = saturated && rep.result.final_ever_infected_count == kNodes;
    report.attempted(rep.result.total_scan_packets, 0);
    if (trace_this) {
      traced_wall.push_back(rep.wall_s);
      rep.tick_ms.clear();
      traced.push_back(std::move(rep));
      return;
    }
    wall.push_back(rep.wall_s);
    build.push_back(rep.ba_s + rep.network_s);
    run_s.push_back(rep.run_s);
    pps.push_back(static_cast<double>(rep.result.total_scan_packets) /
                  rep.run_s);
    tick_ms.insert(tick_ms.end(), rep.tick_ms.begin(), rep.tick_ms.end());
  });

  report.check("trajectory_matches_1_shard", identical,
               "ever/active curves and total_scan_packets equal the "
               "1-shard run");
  report.check("ever_infected_reaches_n", saturated,
               std::to_string(ref.result.final_ever_infected_count) + " of " +
                   std::to_string(kNodes) + " in the reference");

  report.series("wall_s", wall);
  report.series("scan_packets_per_s", pps);
  report.metric("setup_s", setup_s, "s", 1, "1-shard reference outbreak");
  report.metric("wall_s", trimmed_mean(wall), "s", wall.size(),
                "BA build + Network + ShardedSimulation ctor + run");
  report.metric("throughput_per_s", trimmed_mean(pps), "1/s", pps.size(),
                "scan packets per second of ShardedSimulation::run");
  report_latency(report, tick_ms, "per-tick wall");
  report.metric("sim_build_s", trimmed_mean(build), "s", build.size(),
                "make_barabasi_albert + sim::Network");
  report.metric("scan_packets_per_s", trimmed_mean(pps), "1/s", pps.size());
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");

  if (args.trace) {
    std::vector<std::map<std::string, double>> self;
    for (const Rep& r : traced) self.push_back(tracer.self_seconds(r.run));
    auto self_med = [&](const char* name) {
      std::vector<double> v;
      for (const auto& m : self) {
        const auto it = m.find(name);
        v.push_back(it == m.end() ? 0.0 : it->second);
      }
      return median(v);
    };
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const Rep& r : traced) v.push_back(field(r));
      return median(v);
    };
    const std::size_t n = traced.size();
    double tick_max = 0.0;
    for (const SpanRec& s : tracer.spans())
      if (s.name == "sim.tick")
        tick_max = std::max(tick_max, static_cast<double>(s.dur_ns) * 1e-6);
    report.metric("graph.ba_s", self_med("graph.ba"), "s", n);
    report.metric("sim.network_s", self_med("sim.network"), "s", n);
    report.metric("sim.ctor_s", self_med("sim.ctor"), "s", n);
    report.metric("sim.run_s", med([](const Rep& r) { return r.run_s; }), "s",
                  n, "ShardedSimulation::run via step()");
    report.metric("sim.ticks", static_cast<double>(ref.result.perf.ticks),
                  "count");
    report.metric("sim.scan_packets",
                  static_cast<double>(ref.result.total_scan_packets), "count");
    report.metric("sim.packets_forwarded",
                  static_cast<double>(ref.result.perf.packets_forwarded),
                  "count");
    report.metric("sim.tick_max_ms", tick_max, "ms");
    report.metric("sim.emit_s", self_med("sim.emit"), "s", n);
    report.metric("sim.merge_emit_s", self_med("sim.merge_emit"), "s", n);
    report.metric("sim.apply_s", self_med("sim.apply"), "s", n);
    report.metric("sim.merge_apply_s", self_med("sim.merge_apply"), "s", n);
    report.metric("sim.record_s", self_med("sim.record"), "s", n);
    report.metric("sim.tick_other_s", self_med("sim.tick"), "s", n,
                  "tick self time: pre-phase control decisions");
    report.metric("sim.shard1_run_s", ref.run_s, "s", 1,
                  "1-shard reference run");
    // Coverage: share of the timed wall under leaf layer spans (build
    // phases and the engine's own phase spans).
    std::vector<double> coverage;
    for (std::size_t i = 0; i < n; ++i) {
      double internal = 0.0;
      for (const char* name : {"sim.total", "sim.run", "sim.tick"}) {
        const auto it = self[i].find(name);
        if (it != self[i].end()) internal += it->second;
      }
      coverage.push_back(1.0 - internal / traced[i].wall_s);
    }
    report.metric("trace.coverage", median(coverage), "ratio", n,
                  "build phases + emit/merge/apply/record spans over wall");
    report.metric("trace.overhead", median(traced_wall) / median(wall),
                  "ratio", n, "traced / untraced wall");

    const std::string path = args.work_dir + "/sim_scale.spans.ndjson";
    tracer.write_ndjson(path);
    std::printf("# spans: %s\n# self time per traced run:\n", path.c_str());
    for (const auto& [name, s] : tracer.self_seconds())
      std::printf("#   %-24s %10.6f s\n", name.c_str(),
                  s / static_cast<double>(n));
  }
  return report.finish("sim_scale");
}

}  // namespace dqb
