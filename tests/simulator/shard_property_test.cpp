// Shard invariance over the whole mechanism space: seeded random
// SimulationConfigs — every scan strategy, host filters, edge /
// backbone / weighted / flat link limits, the hub cap, both responses
// with and without start_on_detection, legitimate traffic, the
// predator, quarantine with drop-all and throttle, each immunization
// trigger — each run on a star, a power-law and a subnet topology at
// 1, 2, 3 and 7 shards. The serialized results must be byte-equal.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/result_io.hpp"
#include "graph/builders.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/rng.hpp"

namespace dq::sim {
namespace {

SimulationConfig draw_config(Rng& rng, const Network& net) {
  SimulationConfig cfg;
  auto& worm = cfg.worm;
  worm.contact_rate = rng.uniform(0.5, 2.0);
  worm.filtered_contact_rate = rng.uniform(0.0, 0.2);
  worm.selection = static_cast<TargetSelection>(rng.uniform_int(5));
  worm.local_bias = rng.uniform(0.5, 0.95);
  worm.hitlist_size = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
  worm.initial_infected = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  if (rng.bernoulli(0.4)) worm.hit_probability = rng.uniform(0.2, 0.8);

  auto& dep = cfg.deployment;
  if (rng.bernoulli(0.4)) dep.host_filter_fraction = rng.uniform(0.1, 0.6);
  dep.edge_router_limited = rng.bernoulli(0.3);
  dep.backbone_limited = rng.bernoulli(0.3);
  dep.weight_by_routing_load = rng.bernoulli(0.5);
  dep.base_link_capacity = rng.uniform(0.5, 6.0);
  dep.min_link_capacity = rng.uniform(0.1, 1.0);
  if (rng.bernoulli(0.25))
    dep.node_forward_cap = std::pair<std::uint32_t, std::uint32_t>{
        static_cast<std::uint32_t>(rng.uniform_int(net.num_nodes())),
        static_cast<std::uint32_t>(rng.uniform_int(1, 4))};

  cfg.detector.enabled = rng.bernoulli(0.5);
  cfg.detector.observe_probability = rng.uniform(0.05, 0.4);
  cfg.detector.threshold = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  const bool alarm = cfg.detector.enabled;

  switch (rng.uniform_int(3)) {
    case 0:
      break;
    case 1:
      cfg.response.kind = ResponseConfig::Kind::kBlacklist;
      break;
    default:
      cfg.response.kind = ResponseConfig::Kind::kContentFilter;
      break;
  }
  cfg.response.reaction_time = rng.uniform(0.0, 6.0);
  cfg.response.filters_everywhere = rng.bernoulli(0.5);
  cfg.response.start_on_detection = alarm && rng.bernoulli(0.5);

  auto& imm = cfg.immunization;
  imm.enabled = rng.bernoulli(0.35);
  imm.rate = rng.uniform(0.05, 0.3);
  imm.patch_susceptibles = rng.bernoulli(0.7);
  switch (rng.uniform_int(3)) {
    case 0:
      imm.start_at_infected_fraction = rng.uniform(0.05, 0.5);
      break;
    case 1:
      imm.start_at_tick = rng.uniform(1.0, 15.0);
      break;
    default:
      imm.start_on_detection = alarm;
      break;
  }

  if (rng.bernoulli(0.4)) cfg.legit.rate_per_node = rng.uniform(0.05, 0.4);

  auto& pred = cfg.predator;
  pred.enabled = rng.bernoulli(0.3);
  pred.start_tick = rng.uniform(0.0, 10.0);
  pred.initial = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
  pred.contact_rate = rng.uniform(0.5, 1.5);
  pred.patch_delay = rng.uniform(2.0, 10.0);

  auto& q = cfg.quarantine;
  q.enabled = rng.bernoulli(0.4);
  q.start_on_detection = alarm && rng.bernoulli(0.3);
  q.detector.window = rng.uniform(2.0, 5.0);
  q.detector.contact_rate_threshold = rng.uniform(2.0, 8.0);
  q.policy.base_period = rng.uniform(3.0, 20.0);
  if (rng.bernoulli(0.5)) {
    q.policy.treatment = quarantine::Treatment::kThrottle;
    q.policy.throttle_rate = rng.uniform(0.01, 0.3);
  }
  if (rng.bernoulli(0.25)) {
    q.estimator_backend = quarantine::EstimatorBackend::kSharedBitmap;
    q.compact.block_hosts = 16;
  }

  cfg.max_ticks = 25.0;
  cfg.stop_when_saturated = rng.bernoulli(0.5);
  cfg.seed = rng.next_u64();
  return cfg;
}

std::string run_json(const Network& net, const SimulationConfig& cfg,
                     std::size_t shards) {
  return campaign::run_result_to_json(ShardedSimulation(net, cfg, shards).run())
      .dump();
}

TEST(ShardProperty, EveryMechanismIsShardCountInvariant) {
  Rng build(2026);
  const std::vector<Network> nets = [&] {
    std::vector<Network> out;
    out.emplace_back(graph::make_star(40), 1.0 / 40.0, 0.0);
    out.emplace_back(graph::make_barabasi_albert(120, 2, build));
    out.emplace_back(graph::make_subnet_topology(5, 16, build));
    return out;
  }();
  Rng rng(0x5eed);
  constexpr int kConfigs = 24;
  for (int i = 0; i < kConfigs; ++i) {
    for (std::size_t t = 0; t < nets.size(); ++t) {
      const SimulationConfig cfg = draw_config(rng, nets[t]);
      SCOPED_TRACE(testing::Message() << "config " << i << " topology " << t);
      const std::string one = run_json(nets[t], cfg, 1);
      for (std::size_t shards : {2u, 3u, 7u})
        ASSERT_EQ(one, run_json(nets[t], cfg, shards)) << shards << " shards";
    }
  }
}

}  // namespace
}  // namespace dq::sim
