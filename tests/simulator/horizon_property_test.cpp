// A horizon-T run is the first T ticks of a horizon-2T run: every
// recorded curve and every traced event up to tick T agree, link parks
// and releases included. The forward phase does not store a parked
// packet its link cannot release before the run's last tick
// (ceil(max_ticks)); a bound that is too tight releases fewer packets
// by tick T in the short run than in the long one and shows up here.
// Three families: random forwarding configs on power-law graphs,
// response and hub-cap configs (where every parked packet is stored),
// and stars whose infected leaves saturate their uplinks every tick at
// flat capacities from 0.25 to 3.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/builders.hpp"
#include "obs/sink.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/rng.hpp"

namespace dq::sim {
namespace {

struct TracedRun {
  RunResult result;
  std::vector<obs::Event> events;
  /// Σ over limited links of capacity·T + 2: more than the links can
  /// release in T ticks, with room for their starting credit.
  double releasable = 0.0;
};

TracedRun traced_run(const Network& net, SimulationConfig cfg,
                     double horizon) {
  cfg.max_ticks = horizon;
  obs::MultiRunSink sink(1, std::size_t{1} << 18);
  ShardedSimulation sim(net, cfg, 1, sink.run_sink(0));
  TracedRun out{sim.run(), {}, 0.0};
  EXPECT_EQ(sink.ring(0).evicted(), 0u) << "trace overflowed the ring";
  out.events = sink.ring(0).events();
  for (std::size_t l = 0; l < net.num_links(); ++l)
    if (sim.link_capacity(l) > 0.0)
      out.releasable += sim.link_capacity(l) * horizon + 2.0;
  return out;
}

void expect_prefix(const TimeSeries& shorter, const TimeSeries& longer,
                   const char* curve) {
  ASSERT_LE(shorter.size(), longer.size()) << curve;
  const auto n = static_cast<std::ptrdiff_t>(shorter.size());
  EXPECT_EQ(shorter.times(), std::vector<double>(longer.times().begin(),
                                                 longer.times().begin() + n))
      << curve;
  EXPECT_EQ(shorter.values(),
            std::vector<double>(longer.values().begin(),
                                longer.values().begin() + n))
      << curve;
}

/// Runs cfg to horizons T and 2T and expects the first to be a prefix
/// of the second. Returns true when the T run left more packets queued
/// than its links could release in T ticks, i.e. when the
/// count-don't-store rule must have discarded some (absent a response
/// or hub cap).
bool expect_horizon_prefix(const Network& net, SimulationConfig cfg,
                           double T) {
  cfg.stop_when_saturated = false;
  const TracedRun short_run = traced_run(net, cfg, T);
  const TracedRun long_run = traced_run(net, cfg, 2.0 * T);
  const RunResult& a = short_run.result;
  const RunResult& b = long_run.result;
  EXPECT_EQ(a.perf.ticks, static_cast<std::uint64_t>(T));
  expect_prefix(a.active_infected, b.active_infected, "active_infected");
  expect_prefix(a.ever_infected, b.ever_infected, "ever_infected");
  expect_prefix(a.removed, b.removed, "removed");
  expect_prefix(a.seed_subnet_infected, b.seed_subnet_infected,
                "seed_subnet_infected");
  expect_prefix(a.predator_infected, b.predator_infected,
                "predator_infected");

  const auto key = [](const obs::Event& e) {
    return std::tuple(e.time, e.id, e.kind, e.a, e.b, e.value);
  };
  std::vector<decltype(key(obs::Event{}))> shorter, longer;
  for (const obs::Event& e : short_run.events) shorter.push_back(key(e));
  for (const obs::Event& e : long_run.events)
    if (e.time <= T) longer.push_back(key(e));
  EXPECT_EQ(shorter.size(), longer.size());
  EXPECT_TRUE(shorter == longer) << "traces diverge before tick " << T;

  const double left_queued =
      static_cast<double>(a.perf.queue_events - a.perf.queue_releases);
  return left_queued > short_run.releasable;
}

TEST(HorizonProperty, RandomForwardingOnPowerLawGraphs) {
  Rng build(404);
  const std::vector<Network> nets = [&] {
    std::vector<Network> out;
    out.emplace_back(graph::make_barabasi_albert(80, 2, build));
    out.emplace_back(graph::make_barabasi_albert(200, 2, build));
    return out;
  }();
  Rng rng(0x40f1e1d);
  int overloaded = 0;
  constexpr int kConfigs = 24;
  for (int i = 0; i < kConfigs; ++i) {
    const Network& net = nets[static_cast<std::size_t>(i) % nets.size()];
    SimulationConfig cfg;
    cfg.worm.contact_rate = rng.uniform(0.4, 3.2);
    cfg.worm.initial_infected =
        static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    auto& dep = cfg.deployment;
    dep.edge_router_limited = rng.bernoulli(0.6);
    dep.backbone_limited = !dep.edge_router_limited || rng.bernoulli(0.5);
    dep.weight_by_routing_load = rng.bernoulli(0.5);
    dep.base_link_capacity = dep.weight_by_routing_load
                                 ? rng.uniform(5.0, 150.0)
                                 : rng.uniform(0.1, 3.0);
    dep.min_link_capacity = rng.uniform(0.05, 1.0);
    if (rng.bernoulli(0.5)) cfg.legit.rate_per_node = rng.uniform(0.05, 0.3);
    cfg.seed = rng.next_u64();
    const double T = static_cast<double>(rng.uniform_int(8, 30));
    SCOPED_TRACE(testing::Message() << "config " << i << " T " << T);
    overloaded += expect_horizon_prefix(net, cfg, T);
  }
  EXPECT_GE(overloaded, kConfigs / 4)
      << "too few configs queue more than their links can release";
}

TEST(HorizonProperty, ResponsesAndHubCapStoreEveryParkedPacket) {
  Rng build(405);
  const Network net(graph::make_barabasi_albert(120, 2, build));
  Rng rng(0x40f1e1e);
  for (int i = 0; i < 8; ++i) {
    SimulationConfig cfg;
    cfg.worm.contact_rate = rng.uniform(0.8, 3.0);
    cfg.worm.initial_infected = 2;
    cfg.deployment.backbone_limited = true;
    cfg.deployment.edge_router_limited = rng.bernoulli(0.5);
    cfg.deployment.weight_by_routing_load = false;
    cfg.deployment.base_link_capacity = rng.uniform(0.2, 2.0);
    cfg.deployment.min_link_capacity = 0.1;
    if (i % 2 == 0) {
      // The hub cap on node 0, the oldest and best-connected node.
      cfg.deployment.node_forward_cap = std::pair<std::uint32_t, std::uint32_t>{
          0u, static_cast<std::uint32_t>(rng.uniform_int(1, 4))};
    } else {
      cfg.response.kind = i % 4 == 1 ? ResponseConfig::Kind::kBlacklist
                                     : ResponseConfig::Kind::kContentFilter;
      cfg.response.reaction_time = rng.uniform(2.0, 8.0);
    }
    cfg.legit.rate_per_node = 0.1;
    cfg.seed = rng.next_u64();
    SCOPED_TRACE(testing::Message() << "config " << i);
    expect_horizon_prefix(net, cfg, 15.0);
  }
}

TEST(HorizonProperty, SaturatedStarUplinksAtFlatCapacities) {
  // Every link of a star touches the hub, the backbone: all limited at
  // one flat capacity. A leaf scanning 6 times a tick parks most of its
  // packets on its own uplink, so the uplink FIFO grows past what it
  // can release by the horizon.
  const Network net(graph::make_star(30), 1.0 / 30.0, 0.0);
  int overloaded = 0;
  int cases = 0;
  for (const double capacity : {0.25, 0.5, 1.0, 2.0, 3.0}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SimulationConfig cfg;
      cfg.worm.contact_rate = 6.0;
      cfg.worm.initial_infected = 1;
      cfg.deployment.backbone_limited = true;
      cfg.deployment.weight_by_routing_load = false;
      cfg.deployment.base_link_capacity = capacity;
      cfg.deployment.min_link_capacity = capacity;
      cfg.seed = seed;
      const double T = 6.0 + 2.0 * static_cast<double>(seed);
      SCOPED_TRACE(testing::Message()
                   << "capacity " << capacity << " seed " << seed);
      overloaded += expect_horizon_prefix(net, cfg, T);
      ++cases;
    }
  }
  EXPECT_GE(overloaded, cases / 2)
      << "too few stars queue more than their links can release";
}

}  // namespace
}  // namespace dq::sim
