// Counter-worm ("predator") tests — the Blaster/Welchia dynamic from
// the paper's own trace: a patching worm that races the malicious one,
// cures the hosts it reaches, and eventually patches them closed.
#include <gtest/gtest.h>

#include "graph/builders.hpp"
#include "simulator/runner.hpp"
#include "simulator/sharded_sim.hpp"

namespace dq::sim {
namespace {

const Network& net() {
  static const Network network = [] {
    Rng rng(31);
    return Network(graph::make_barabasi_albert(300, 2, rng));
  }();
  return network;
}

SimulationConfig config(double predator_start = 5.0) {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.initial_infected = 1;
  cfg.predator.enabled = true;
  cfg.predator.start_tick = predator_start;
  cfg.predator.initial = 1;
  cfg.predator.contact_rate = 1.2;  // Welchia swept faster than Blaster
  cfg.predator.patch_delay = 10.0;
  cfg.max_ticks = 120.0;
  cfg.seed = 5;
  return cfg;
}

TEST(Predator, Validation) {
  SimulationConfig cfg = config();
  cfg.predator.contact_rate = 0.0;
  EXPECT_THROW(ShardedSimulation(net(), cfg, 1), std::invalid_argument);
  cfg = config();
  cfg.predator.initial = 0;
  EXPECT_THROW(ShardedSimulation(net(), cfg, 1), std::invalid_argument);
  cfg = config();
  cfg.predator.patch_delay = -1.0;
  EXPECT_THROW(ShardedSimulation(net(), cfg, 1), std::invalid_argument);
}

TEST(Predator, EventuallyCleansTheNetwork) {
  const RunResult result = ShardedSimulation(net(), config(), 1).run();
  // The counter-worm takes over and then patches everyone closed: no
  // active main-worm infection survives.
  EXPECT_LT(result.active_infected.back_value(), 0.02);
  EXPECT_GT(result.removed.back_value(), 0.9);
  // The predator population itself dies down once patched.
  ASSERT_FALSE(result.predator_infected.empty());
  EXPECT_LT(result.predator_infected.back_value(), 0.1);
}

TEST(Predator, PredatorPopulationRisesThenFalls) {
  const RunResult result = ShardedSimulation(net(), config(), 1).run();
  const double peak = result.predator_infected.max_value();
  EXPECT_GT(peak, 0.2);
  EXPECT_LT(result.predator_infected.back_value(), peak / 2.0);
}

TEST(Predator, CuredHostsCannotBeReinfected) {
  SimulationConfig cfg = config();
  cfg.max_ticks = 200.0;
  ShardedSimulation sim(net(), cfg, 1);
  const RunResult result = sim.run();
  // After the dust settles every node is removed (patched) or was
  // never touched; none is left infected.
  std::size_t infected = 0;
  for (graph::NodeId v = 0; v < net().num_nodes(); ++v)
    infected += sim.state(v) == NodeState::kInfected;
  EXPECT_EQ(infected, 0u);
  EXPECT_LT(result.active_infected.back_value(), 1e-9);
}

TEST(Predator, EarlierReleaseLimitsTheOutbreak) {
  auto ever_infected = [&](double start) {
    SimulationConfig cfg = config(start);
    return run_many(net(), cfg, 5).ever_infected.back_value();
  };
  const double early = ever_infected(2.0);
  const double late = ever_infected(12.0);
  EXPECT_LT(early, late);
}

TEST(Predator, EverInfectedTracksMainWormOnly) {
  // With a predator released before the worm can move, almost nothing
  // gets infected by the main worm even though the predator sweeps
  // the whole network.
  SimulationConfig cfg = config(0.0);
  cfg.predator.initial = 10;
  cfg.predator.contact_rate = 3.0;
  const RunResult result = ShardedSimulation(net(), cfg, 1).run();
  EXPECT_LT(result.ever_infected.back_value(), 0.5);
  EXPECT_GT(result.removed.back_value(), 0.9);
}

TEST(Predator, RateLimitingSlowsThePredatorToo) {
  // Nuance: backbone rate limiting throttles the cure as much as the
  // disease — the total ever-infected can *rise* with rate limiting
  // when a fast predator is the main defense.
  SimulationConfig cfg = config(5.0);
  const double open = run_many(net(), cfg, 5).ever_infected.back_value();
  cfg.deployment.backbone_limited = true;
  cfg.deployment.weight_by_routing_load = false;
  cfg.deployment.base_link_capacity = 1.0;
  cfg.deployment.min_link_capacity = 1.0;
  cfg.max_ticks = 300.0;
  const AveragedResult throttled = run_many(net(), cfg, 5);
  // Both spread slower; assert the predator still wins eventually.
  EXPECT_LT(throttled.active_infected.back_value(), 0.1);
  // And record the direction of the interaction for the curious:
  // no assertion on ordering vs `open` — both outcomes are legitimate
  // depending on rates — only that the system stays consistent.
  EXPECT_GT(open, 0.0);
}

TEST(Predator, DisabledByDefault) {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.max_ticks = 30.0;
  cfg.seed = 9;
  const RunResult result = ShardedSimulation(net(), cfg, 1).run();
  EXPECT_TRUE(result.predator_infected.empty());
}

}  // namespace
}  // namespace dq::sim
