// Golden-trajectory fixtures: eight fixed-seed single runs serialized
// as canonical JSON under tests/data/golden/, byte-compared against a
// fresh simulation. Any behavioural change in the tick loop — event
// ordering, RNG draw order, a new counter — shows up as a fixture
// diff here before it shows up as a silently shifted figure.
//
// Regenerate after an INTENDED behaviour change with
// `./build/tests/dq_golden_test --update-golden` (see golden.hpp).
#include <gtest/gtest.h>

#include <string>

#include "campaign/job.hpp"
#include "campaign/result_io.hpp"
#include "golden.hpp"
#include "simulator/sharded_sim.hpp"

namespace dq::sim {
namespace {

/// Every fixture also pins the engine's shard-count invariance: the
/// run is executed at 1 shard and at 3 shards, the two serializations
/// must be byte-equal, and the 1-shard bytes are then compared against
/// the committed fixture.
void check_sharded_golden(const std::string& name,
                          const campaign::TopologySpec& topology,
                          const SimulationConfig& config) {
  const Network net = campaign::build_network(topology);
  const RunResult one = ShardedSimulation(net, config, 1).run();
  const RunResult three = ShardedSimulation(net, config, 3).run();
  const std::string fresh =
      campaign::run_result_to_json(one).dump() + "\n";
  const std::string resharded =
      campaign::run_result_to_json(three).dump() + "\n";
  ASSERT_EQ(fresh, resharded)
      << name << ": 1-shard and 3-shard trajectories differ — the "
      << "engine's determinism contract is broken.";

  test::expect_golden(name + ".json", fresh);
}

TEST(Golden, StarNoRateLimiting) {
  campaign::TopologySpec topo;
  topo.kind = campaign::TopologySpec::Kind::kStar;
  topo.nodes = 200;
  topo.backbone_fraction = 1.0 / 200.0;
  topo.edge_fraction = 0.0;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 1;
  cfg.max_ticks = 50.0;
  cfg.seed = 12345;
  check_sharded_golden("star_no_rl", topo, cfg);
}

TEST(Golden, PowerLawBackboneRateLimiting) {
  campaign::TopologySpec topo;  // BA(1000, 2), top-5% backbone
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 1;
  cfg.deployment.backbone_limited = true;
  cfg.max_ticks = 120.0;
  cfg.seed = 12345;
  check_sharded_golden("powerlaw_backbone_rl", topo, cfg);
}

TEST(Golden, QuarantineEnabled) {
  campaign::TopologySpec topo;
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 5;
  cfg.worm.hit_probability = 0.1;  // sparse scans feed the detectors
  cfg.legit.rate_per_node = 0.2;
  cfg.quarantine.enabled = true;
  cfg.max_ticks = 100.0;
  cfg.seed = 12345;
  check_sharded_golden("quarantine_enabled", topo, cfg);
}

TEST(Golden, ImmunizationAtTwentyPercent) {
  campaign::TopologySpec topo;
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 1;
  cfg.immunization.enabled = true;
  cfg.immunization.start_at_infected_fraction = 0.2;
  cfg.immunization.rate = 0.1;
  cfg.max_ticks = 100.0;
  cfg.seed = 12345;
  check_sharded_golden("immunization_at_20pct", topo, cfg);
}

TEST(Golden, ShardedSparse) {
  campaign::TopologySpec topo;  // BA(1000, 2)
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 1.0;
  cfg.worm.initial_infected = 3;
  cfg.worm.hit_probability = 0.3;
  cfg.detector.enabled = true;
  cfg.detector.observe_probability = 0.02;
  cfg.detector.threshold = 10;
  cfg.max_ticks = 60.0;
  cfg.seed = 2026;
  check_sharded_golden("sharded_sparse", topo, cfg);
}

TEST(Golden, ShardedDense) {
  campaign::TopologySpec topo;
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 1;
  cfg.deployment.host_filter_fraction = 0.3;
  cfg.max_ticks = 60.0;
  cfg.seed = 2026;
  check_sharded_golden("sharded_dense", topo, cfg);
}

TEST(Golden, ShardedSubnetLocalPreferential) {
  campaign::TopologySpec topo;
  topo.kind = campaign::TopologySpec::Kind::kSubnets;
  topo.num_subnets = 10;
  topo.hosts_per_subnet = 50;
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 1.0;
  cfg.worm.selection = TargetSelection::kLocalPreferential;
  cfg.worm.local_bias = 0.7;
  cfg.worm.initial_infected = 2;
  cfg.max_ticks = 50.0;
  cfg.seed = 2026;
  check_sharded_golden("sharded_subnet", topo, cfg);
}

TEST(Golden, ShardedQuarantine) {
  campaign::TopologySpec topo;
  topo.build_seed = 99;
  SimulationConfig cfg;
  cfg.worm.contact_rate = 1.2;
  cfg.worm.initial_infected = 5;
  cfg.worm.hit_probability = 0.2;  // sparse scans feed the detectors
  cfg.quarantine.enabled = true;
  cfg.quarantine.detector.window = 4.0;
  cfg.quarantine.detector.contact_rate_threshold = 5.0;
  cfg.quarantine.policy.base_period = 20.0;
  cfg.immunization.enabled = true;
  cfg.immunization.start_at_infected_fraction = 0.3;
  cfg.immunization.rate = 0.05;
  cfg.max_ticks = 80.0;
  cfg.seed = 2026;
  check_sharded_golden("sharded_quarantine", topo, cfg);
}

}  // namespace
}  // namespace dq::sim
