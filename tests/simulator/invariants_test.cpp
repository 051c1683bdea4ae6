// Invariant checks: step the simulator manually through a grab bag of
// configurations and assert the state-machine invariants hold at every
// tick. Property-style: parameterized over seeds and configurations.
#include <gtest/gtest.h>

#include "graph/builders.hpp"
#include "simulator/sharded_sim.hpp"

namespace dq::sim {
namespace {

struct Variant {
  const char* name;
  SimulationConfig config;
};

SimulationConfig base() {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.initial_infected = 2;
  cfg.max_ticks = 40.0;
  return cfg;
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"plain", base()});
  {
    SimulationConfig cfg = base();
    cfg.deployment.backbone_limited = true;
    out.push_back({"backbone-rl", cfg});
  }
  {
    SimulationConfig cfg = base();
    cfg.deployment.host_filter_fraction = 0.5;
    cfg.deployment.edge_router_limited = true;
    out.push_back({"edge+host", cfg});
  }
  {
    SimulationConfig cfg = base();
    cfg.immunization.enabled = true;
    cfg.immunization.rate = 0.15;
    cfg.immunization.start_at_tick = 5.0;
    out.push_back({"immunized", cfg});
  }
  {
    SimulationConfig cfg = base();
    cfg.worm.selection = TargetSelection::kPermutation;
    cfg.response.kind = ResponseConfig::Kind::kContentFilter;
    cfg.response.reaction_time = 4.0;
    out.push_back({"permutation+filter", cfg});
  }
  {
    SimulationConfig cfg = base();
    cfg.legit.rate_per_node = 0.3;
    cfg.response.kind = ResponseConfig::Kind::kBlacklist;
    cfg.response.reaction_time = 3.0;
    cfg.deployment.backbone_limited = true;
    out.push_back({"kitchen-sink", cfg});
  }
  return out;
}

class InvariantSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InvariantSweep, StateMachineInvariantsHoldEveryTick) {
  Rng rng(77);
  const Network net(graph::make_barabasi_albert(150, 2, rng));
  for (const Variant& variant : variants()) {
    SimulationConfig cfg = variant.config;
    cfg.seed = GetParam();
    ShardedSimulation sim(net, cfg, 1);

    double prev_ever = 0.0;
    for (int tick = 0; tick < 40; ++tick) {
      sim.step();

      // Recount states from scratch and compare with the counters.
      std::size_t infected = 0, removed = 0;
      for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
        infected += sim.state(v) == NodeState::kInfected;
        removed += sim.state(v) == NodeState::kRemoved;
      }
      EXPECT_EQ(sim.active_infected_count(), infected) << variant.name;
      EXPECT_LE(sim.active_infected_count(), sim.ever_infected_count())
          << variant.name;
      EXPECT_LE(sim.ever_infected_count() ,
                net.num_nodes()) << variant.name;
      EXPECT_LE(infected + removed, net.num_nodes()) << variant.name;

      const double ever =
          static_cast<double>(sim.ever_infected_count()) /
          static_cast<double>(net.num_nodes());
      EXPECT_GE(ever + 1e-12, prev_ever) << variant.name;
      prev_ever = ever;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvariantSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(Invariants, RunResultSeriesAreConsistent) {
  Rng rng(78);
  const Network net(graph::make_barabasi_albert(200, 2, rng));
  SimulationConfig cfg = base();
  cfg.immunization.enabled = true;
  cfg.immunization.rate = 0.1;
  cfg.immunization.start_at_infected_fraction = 0.3;
  cfg.max_ticks = 60.0;
  cfg.seed = 21;
  const RunResult result = ShardedSimulation(net, cfg, 1).run();
  ASSERT_EQ(result.active_infected.size(), result.ever_infected.size());
  ASSERT_EQ(result.removed.size(), result.ever_infected.size());
  for (std::size_t i = 0; i < result.ever_infected.size(); ++i) {
    EXPECT_LE(result.active_infected.value_at(i),
              result.ever_infected.value_at(i) + 1e-12);
    EXPECT_LE(result.removed.value_at(i), 1.0 + 1e-12);
    EXPECT_LE(result.active_infected.value_at(i) +
                  result.removed.value_at(i),
              1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace dq::sim
