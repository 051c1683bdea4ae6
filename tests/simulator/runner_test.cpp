#include "simulator/runner.hpp"

#include <gtest/gtest.h>

#include "graph/builders.hpp"

namespace dq::sim {
namespace {

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.initial_infected = 1;
  cfg.max_ticks = 30.0;
  cfg.seed = 11;
  return cfg;
}

TEST(Runner, RejectsZeroRuns) {
  const Network net(graph::make_star(20), 0.05, 0.0);
  EXPECT_THROW(run_many(net, base_config(), 0), std::invalid_argument);
}

TEST(Runner, AveragesOnIntegerGrid) {
  const Network net(graph::make_star(20), 0.05, 0.0);
  const AveragedResult avg = run_many(net, base_config(), 4);
  EXPECT_EQ(avg.runs, 4u);
  ASSERT_EQ(avg.ever_infected.size(), 31u);
  EXPECT_DOUBLE_EQ(avg.ever_infected.time_at(0), 0.0);
  EXPECT_DOUBLE_EQ(avg.ever_infected.time_at(30), 30.0);
}

TEST(Runner, AverageLiesWithinRunEnvelope) {
  const Network net(graph::make_star(40), 0.025, 0.0);
  const SimulationConfig cfg = base_config();
  const AveragedResult avg = run_many(net, cfg, 5);

  // Each individual run's final value brackets the average.
  double lo = 1.0, hi = 0.0;
  for (std::size_t r = 0; r < 5; ++r) {
    SimulationConfig one = cfg;
    one.seed = run_seed(cfg.seed, r);
    ShardedSimulation sim(net, one, 1);
    const double v = sim.run().ever_infected.back_value();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(avg.ever_infected.back_value(), lo - 1e-9);
  EXPECT_LE(avg.ever_infected.back_value(), hi + 1e-9);
}

TEST(Runner, SeedSubstreamsDoNotOverlapAcrossAdjacentBases) {
  // Regression: seeds used to be base + r, so run r of base S was
  // bit-identical to run r-1 of base S+1 — adjacent-seed sweeps shared
  // RNG streams. The mix64 substream keeps every (base, run) pair
  // distinct...
  const std::uint64_t base = 11;
  for (std::size_t r = 1; r <= 8; ++r)
    EXPECT_NE(run_seed(base, r), run_seed(base + 1, r - 1)) << r;
  EXPECT_NE(run_seed(base, 0), base);  // run 0 is a substream too

  // ...and the trajectories diverge accordingly: run 1 of seed S no
  // longer repeats run 0 of seed S+1.
  const Network net(graph::make_star(40), 0.025, 0.0);
  SimulationConfig a = base_config();
  a.seed = run_seed(base, 1);
  SimulationConfig b = base_config();
  b.seed = run_seed(base + 1, 0);
  const RunResult ra = ShardedSimulation(net, a, 1).run();
  const RunResult rb = ShardedSimulation(net, b, 1).run();
  bool identical = ra.ever_infected.size() == rb.ever_infected.size();
  if (identical)
    for (std::size_t i = 0; i < ra.ever_infected.size(); ++i)
      identical = identical && ra.ever_infected.value_at(i) ==
                                   rb.ever_infected.value_at(i);
  EXPECT_FALSE(identical);
}

TEST(Runner, EarlyStoppedRunsExtendToHorizon) {
  // Saturating runs stop early; the averaged series must still cover
  // the full horizon with the saturated value held constant.
  const Network net(graph::make_star(10), 0.1, 0.0);
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 50.0;
  const AveragedResult avg = run_many(net, cfg, 3);
  EXPECT_DOUBLE_EQ(avg.ever_infected.back_time(), 50.0);
  EXPECT_DOUBLE_EQ(avg.ever_infected.back_value(), 1.0);
}

TEST(Runner, ImmunizationStartAveraged) {
  const Network net(graph::make_star(50), 0.02, 0.0);
  SimulationConfig cfg = base_config();
  cfg.immunization.enabled = true;
  cfg.immunization.rate = 0.1;
  cfg.immunization.start_at_tick = 4.0;
  const AveragedResult avg = run_many(net, cfg, 3);
  EXPECT_NEAR(avg.mean_immunization_start, 4.0, 1.0);
}

TEST(Runner, NoImmunizationReportsMinusOne) {
  const Network net(graph::make_star(20), 0.05, 0.0);
  const AveragedResult avg = run_many(net, base_config(), 2);
  EXPECT_DOUBLE_EQ(avg.mean_immunization_start, -1.0);
}

TEST(Runner, ParallelMatchesSerialExactly) {
  Rng rng(9);
  const Network net(graph::make_barabasi_albert(200, 2, rng));
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 40.0;
  const AveragedResult serial = run_many(net, cfg, 6, 1);
  const AveragedResult parallel = run_many(net, cfg, 6, 4);
  ASSERT_EQ(serial.ever_infected.size(), parallel.ever_infected.size());
  for (std::size_t i = 0; i < serial.ever_infected.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.ever_infected.value_at(i),
                     parallel.ever_infected.value_at(i));
    EXPECT_DOUBLE_EQ(serial.active_infected.value_at(i),
                     parallel.active_infected.value_at(i));
  }
}

TEST(Runner, EightWayParallelMatchesSerialExactly) {
  // Determinism must not depend on the worker count: every run's RNG
  // stream is fixed by its seed, so 1 and 8 workers give bit-identical
  // averaged curves (and the same aggregate tick-loop counters).
  Rng rng(9);
  const Network net(graph::make_barabasi_albert(200, 2, rng));
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 40.0;
  const AveragedResult serial = run_many(net, cfg, 8, 1);
  const AveragedResult parallel = run_many(net, cfg, 8, 8);
  ASSERT_EQ(serial.ever_infected.size(), parallel.ever_infected.size());
  for (std::size_t i = 0; i < serial.ever_infected.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.ever_infected.value_at(i),
                     parallel.ever_infected.value_at(i));
    EXPECT_DOUBLE_EQ(serial.active_infected.value_at(i),
                     parallel.active_infected.value_at(i));
    EXPECT_DOUBLE_EQ(serial.removed.value_at(i),
                     parallel.removed.value_at(i));
  }
  EXPECT_EQ(serial.perf_counters.ticks, parallel.perf_counters.ticks);
  EXPECT_EQ(serial.perf_counters.packets_forwarded,
            parallel.perf_counters.packets_forwarded);
  EXPECT_EQ(serial.perf_counters.queue_events,
            parallel.perf_counters.queue_events);
}

TEST(Runner, SummedCountersCarryNoWallSeconds) {
  // perf_counters carries only deterministic event counts: wall
  // seconds summed over parallel runs would exceed elapsed time.
  const Network net(graph::make_star(40), 0.025, 0.0);
  const AveragedResult avg = run_many(net, base_config(), 4);
  EXPECT_EQ(avg.perf_counters.total_seconds(), 0.0);
  EXPECT_GT(avg.perf_counters.ticks, 0u);
}

TEST(Runner, SeedSubnetAveragedOnSubnets) {
  Rng rng(5);
  const Network net(graph::make_subnet_topology(5, 8, rng));
  const AveragedResult avg = run_many(net, base_config(), 3);
  EXPECT_FALSE(avg.seed_subnet_infected.empty());
  EXPECT_EQ(avg.seed_subnet_infected.size(), avg.ever_infected.size());
}

}  // namespace
}  // namespace dq::sim
