// The engine's one-step law. Without link limits, responses or
// quarantine action, every infected node sends Poisson(β) scans; each
// reaches a live host with probability h and lands uniformly on one of
// the other N−1 nodes. Given S susceptible and I infected nodes after
// tick t−1, the new infections of tick t are then
//
//     Binomial(S, 1 − exp(−β·h·I/(N−1))),
//
// a Reed–Frost chain binomial with Poisson contacts; with host filters
// the infected nodes' summed scan rate replaces β·I. Each susceptible
// node falls independently, so the law holds on any fixed set of nodes
// too: every tick gives one standardized residual per block of node
// ids, which also catches targets that are not uniform. Each case pools
// the residuals over seeds and holds them to mean 0 and variance 1.
//
// At h < 1 a sender that no armed detector watches draws its hits
// directly, Poisson(β·h), while a watched one draws every attempt and a
// hit coin per attempt. Each h < 1 case runs again under an armed
// quarantine that never fires, so both paths answer to the same law.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "graph/builders.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/hash.hpp"
#include "stats/rng.hpp"

namespace dq::sim {
namespace {

constexpr double kBeta = 0.8;
/// Residuals pooled per case: their sample variance then has a standard
/// deviation near 0.02, so the [0.9, 1.1] bound sits ~4.5 of them out.
constexpr double kResiduals = 8000.0;
constexpr std::size_t kBlocks = 8;

/// Standardized residuals pooled over runs.
struct Pool {
  double count = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  double mean() const { return sum / count; }
  double variance() const {
    return (sum_sq - sum * sum / count) / (count - 1.0);
  }
};

/// One pass over the nodes: the susceptible nodes of each block of node
/// ids, and the summed scan rate of the infected ones (β₂ on a host
/// filter, β elsewhere), which replaces β·I in the law.
struct Census {
  std::array<double, kBlocks> susceptible{};
  double scan_rate = 0.0;
};

Census take_census(const ShardedSimulation& sim, const SimulationConfig& cfg,
                   std::size_t n) {
  Census c;
  for (NodeId v = 0; v < n; ++v) {
    const NodeState state = sim.state(v);
    if (state == NodeState::kSusceptible)
      c.susceptible[v * kBlocks / n] += 1.0;
    else if (state == NodeState::kInfected)
      c.scan_rate += sim.host_filtered(v) ? cfg.worm.filtered_contact_rate
                                          : cfg.worm.contact_rate;
  }
  return c;
}

/// Adds one run's residuals, one per block and tick, until saturation.
/// A residual whose binomial variance is below 1/4 is skipped, and the
/// run ends once the whole network's is: near saturation the residual
/// of an almost certain outcome has too heavy a tail to pool. Both read
/// only the state before the tick, so the residuals kept still have
/// mean 0 and variance 1.
void add_run(const Network& net, const SimulationConfig& cfg,
             std::size_t shards, Pool& pool) {
  ShardedSimulation sim(net, cfg, shards);
  const std::size_t n = net.num_nodes();
  const double per_pair =
      cfg.worm.hit_probability / static_cast<double>(n - 1);
  Census before = take_census(sim, cfg, n);
  while (sim.tick() < cfg.max_ticks) {
    const double p = -std::expm1(-per_pair * before.scan_rate);
    const double q = p * (1.0 - p);
    const double s = static_cast<double>(n - sim.ever_infected_count());
    if (s * q < 0.25) return;
    sim.step();
    const Census after = take_census(sim, cfg, n);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      const double var = before.susceptible[b] * q;
      if (var < 0.25) continue;
      const double new_infections =
          before.susceptible[b] - after.susceptible[b];
      const double z =
          (new_infections - before.susceptible[b] * p) / std::sqrt(var);
      pool.count += 1.0;
      pool.sum += z;
      pool.sum_sq += z * z;
    }
    before = after;
  }
}

/// An armed quarantine whose only detector needs more contacts per
/// window than any host sends: every sender is watched, none isolated.
void arm_silent_quarantine(SimulationConfig& cfg) {
  auto& q = cfg.quarantine;
  q.enabled = true;
  q.detector.contact_rate_threshold = 1e9;
  q.detector.distinct_dest_threshold = 0.0;
  q.detector.failure_ratio_threshold = 0.0;
}

SimulationConfig law_config() {
  SimulationConfig cfg;
  cfg.worm.contact_rate = kBeta;
  cfg.worm.initial_infected = 3;
  cfg.max_ticks = 60.0;
  return cfg;
}

/// Runs h = 1, h = 0.5 unwatched and h = 0.5 watched from `base` at each
/// shard count. Trajectories do not depend on the shard count, so each
/// case draws its own seeds, counting up from `seed`.
void check_law(const Network& net, const SimulationConfig& base,
               std::uint64_t seed,
               std::initializer_list<std::size_t> shard_counts) {
  struct Case {
    double hit;
    bool watched;
  };
  for (const std::size_t shards : shard_counts) {
    for (const Case c : {Case{1.0, false}, Case{0.5, false},
                         Case{0.5, true}}) {
      SCOPED_TRACE(testing::Message()
                   << "h=" << c.hit << (c.watched ? " watched" : "")
                   << ", " << shards << " shards");
      SimulationConfig cfg = base;
      cfg.worm.hit_probability = c.hit;
      if (c.watched) arm_silent_quarantine(cfg);
      Pool pool;
      while (pool.count < kResiduals) {
        cfg.seed = mix64(seed++);
        add_run(net, cfg, shards, pool);
      }
      const double se = std::sqrt(pool.variance() / pool.count);
      EXPECT_LT(std::abs(pool.mean()), 4.0 * se)
          << "mean " << pool.mean() << " over " << pool.count;
      EXPECT_GE(pool.variance(), 0.9);
      EXPECT_LE(pool.variance(), 1.1);
    }
  }
}

Network barabasi_albert_1000() {
  Rng build(2030);
  return Network(graph::make_barabasi_albert(1000, 2, build));
}

TEST(EngineLaw, BarabasiAlbert) {
  check_law(barabasi_albert_1000(), law_config(), 1, {1, 3});
}

TEST(EngineLaw, Star) {
  check_law(Network(graph::make_star(1000)), law_config(), 1u << 20, {1, 3});
}

TEST(EngineLaw, HostFilters) {
  // Half the end hosts scan at β₂ = 0.2. One shard suffices: the shard
  // count never changes a trajectory (ShardProperty).
  SimulationConfig cfg = law_config();
  cfg.deployment.host_filter_fraction = 0.5;
  cfg.worm.filtered_contact_rate = 0.2;
  check_law(barabasi_albert_1000(), cfg, 2u << 20, {1});
}

}  // namespace
}  // namespace dq::sim
