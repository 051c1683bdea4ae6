#include <gtest/gtest.h>

#include "graph/builders.hpp"
#include "simulator/runner.hpp"
#include "simulator/sharded_sim.hpp"

namespace dq::sim {
namespace {

/// An aggressive scanner sweeping a sparse address space: 90% of its
/// scans miss (failed connections), which is exactly the signal the
/// quarantine detectors key on. Legit traffic stays far below every
/// threshold.
SimulationConfig scanner_config() {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 8.0;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.hit_probability = 0.1;
  cfg.worm.initial_infected = 2;
  cfg.legit.rate_per_node = 0.2;
  cfg.quarantine.enabled = true;
  cfg.quarantine.policy.base_period = 20.0;
  cfg.max_ticks = 60.0;
  cfg.stop_when_saturated = false;
  cfg.seed = 13;
  return cfg;
}

Network star_net(std::size_t n = 150) {
  return Network(graph::make_star(n), 1.0 / static_cast<double>(n), 0.0);
}

TEST(QuarantineSim, Validation) {
  const Network net = star_net(50);
  SimulationConfig cfg = scanner_config();
  cfg.worm.hit_probability = 0.0;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = scanner_config();
  cfg.worm.hit_probability = 1.5;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = scanner_config();
  cfg.quarantine.policy.escalation = 0.5;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  // Alarm-driven start requires the dark-space detector, for both the
  // quarantine engine and the baseline responses.
  cfg = scanner_config();
  cfg.quarantine.start_on_detection = true;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = scanner_config();
  cfg.response.kind = ResponseConfig::Kind::kBlacklist;
  cfg.response.start_on_detection = true;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
}

TEST(QuarantineSim, SparseAddressSpaceDelaysSpread) {
  const Network net = star_net();
  SimulationConfig cfg = scanner_config();
  cfg.quarantine.enabled = false;
  const RunResult sparse = ShardedSimulation(net, cfg, 1).run();
  cfg.worm.hit_probability = 1.0;
  const RunResult dense = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GT(dense.total_scan_packets, sparse.total_scan_packets);
  EXPECT_GE(dense.ever_infected.back_value(),
            sparse.ever_infected.back_value());
}

TEST(QuarantineSim, QuarantineContainsTheScanner) {
  const Network net = star_net();
  SimulationConfig cfg = scanner_config();
  cfg.quarantine.enabled = false;
  const RunResult open = ShardedSimulation(net, cfg, 1).run();
  cfg.quarantine.enabled = true;
  const RunResult contained = ShardedSimulation(net, cfg, 1).run();

  EXPECT_GT(open.ever_infected.back_value(),
            contained.ever_infected.back_value() + 0.2);
  // Every infected host was caught, quickly, and isolation did work.
  EXPECT_GT(contained.quarantine.detection_rate, 0.8);
  EXPECT_GE(contained.quarantine.mean_detection_latency, 0.0);
  EXPECT_GT(contained.quarantine_dropped_packets, 0u);
  // Bounded penalty: ordinary hosts at 0.2 contacts/tick never trip a
  // detector tuned for tens of contacts per window.
  EXPECT_DOUBLE_EQ(contained.quarantine.false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(contained.quarantine.benign_quarantine_time, 0.0);
}

TEST(QuarantineSim, IsolatedHostsLoseLegitTrafficToo) {
  // kDropAll is full isolation: a quarantined host's legitimate
  // packets are collateral, and the simulator accounts for them.
  const Network net = star_net();
  const RunResult r = ShardedSimulation(net, scanner_config(), 1).run();
  EXPECT_GT(r.legit_quarantine_dropped, 0u);
  EXPECT_LE(r.legit_quarantine_dropped, r.legit_sent);
}

TEST(QuarantineSim, ThrottleTreatmentAlsoContains) {
  const Network net = star_net();
  SimulationConfig cfg = scanner_config();
  cfg.quarantine.enabled = false;
  const RunResult open = ShardedSimulation(net, cfg, 1).run();
  cfg.quarantine.enabled = true;
  cfg.quarantine.policy.treatment = quarantine::Treatment::kThrottle;
  cfg.quarantine.policy.throttle_rate = 0.01;
  const RunResult throttled = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GT(open.ever_infected.back_value(),
            throttled.ever_infected.back_value() + 0.2);
  // Throttling caps the rate instead of isolating: no packets are
  // administratively destroyed at a quarantine boundary.
  EXPECT_EQ(throttled.quarantine_dropped_packets, 0u);
  EXPECT_EQ(throttled.legit_quarantine_dropped, 0u);
}

TEST(QuarantineSim, DeterministicAcrossWorkerCounts) {
  // The quarantine path adds RNG draws (hit-probability misses) and
  // per-run reports; both must stay bit-identical between 1 and 8
  // worker threads.
  Rng rng(9);
  const Network net(graph::make_barabasi_albert(200, 2, rng));
  SimulationConfig cfg = scanner_config();
  cfg.max_ticks = 40.0;
  const AveragedResult serial = run_many(net, cfg, 8, 1);
  const AveragedResult parallel = run_many(net, cfg, 8, 8);
  ASSERT_EQ(serial.ever_infected.size(), parallel.ever_infected.size());
  for (std::size_t i = 0; i < serial.ever_infected.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.ever_infected.value_at(i),
                     parallel.ever_infected.value_at(i));
  EXPECT_DOUBLE_EQ(serial.quarantine_mean.detection_rate,
                   parallel.quarantine_mean.detection_rate);
  EXPECT_DOUBLE_EQ(serial.quarantine_mean.mean_detection_latency,
                   parallel.quarantine_mean.mean_detection_latency);
  EXPECT_DOUBLE_EQ(serial.quarantine_mean.false_positive_rate,
                   parallel.quarantine_mean.false_positive_rate);
  EXPECT_DOUBLE_EQ(serial.quarantine_mean.quarantine_events,
                   parallel.quarantine_mean.quarantine_events);
  EXPECT_DOUBLE_EQ(serial.mean_quarantine_dropped,
                   parallel.mean_quarantine_dropped);
  EXPECT_DOUBLE_EQ(serial.mean_legit_quarantine_dropped,
                   parallel.mean_legit_quarantine_dropped);
}

TEST(QuarantineSim, StartOnDetectionWaitsForTheAlarm) {
  const Network net = star_net();
  SimulationConfig cfg = scanner_config();
  cfg.quarantine.start_on_detection = true;
  cfg.detector.enabled = true;

  // Alarm that can never fire: the engine stays dormant all run.
  cfg.detector.observe_probability = 1e-9;
  cfg.detector.threshold = 1000000;
  const RunResult dormant = ShardedSimulation(net, cfg, 1).run();
  EXPECT_DOUBLE_EQ(dormant.detection_tick, -1.0);
  EXPECT_DOUBLE_EQ(dormant.quarantine.quarantine_events, 0.0);

  // A hair-trigger alarm: quarantine kicks in and contains.
  cfg.detector.observe_probability = 0.5;
  cfg.detector.threshold = 5;
  const RunResult armed = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GE(armed.detection_tick, 0.0);
  EXPECT_GT(armed.quarantine.quarantine_events, 0.0);
  EXPECT_GT(dormant.ever_infected.back_value(),
            armed.ever_infected.back_value());
}

TEST(QuarantineSim, BlacklistStartOnDetectionStaysDormantWithoutAlarm) {
  const Network net = star_net();
  SimulationConfig cfg = scanner_config();
  cfg.quarantine.enabled = false;
  cfg.response.kind = ResponseConfig::Kind::kBlacklist;
  cfg.response.reaction_time = 2.0;
  cfg.response.filters_everywhere = true;
  cfg.response.start_on_detection = true;
  cfg.detector.enabled = true;
  cfg.detector.observe_probability = 1e-9;
  cfg.detector.threshold = 1000000;
  const RunResult dormant = ShardedSimulation(net, cfg, 1).run();
  EXPECT_EQ(dormant.worm_packets_dropped, 0u);

  cfg.detector.observe_probability = 0.5;
  cfg.detector.threshold = 5;
  const RunResult armed = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GT(armed.worm_packets_dropped, 0u);
}

}  // namespace
}  // namespace dq::sim
