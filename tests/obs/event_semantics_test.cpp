// End-to-end event semantics on a fixed-seed star-graph quarantine
// run: every detected host goes suspected→quarantined exactly once
// (the quarantine period outlasts the horizon, so re-offense is
// impossible), strikes arrive in sim-time order, the NDJSON summary
// agrees with the engine's own QuarantineReport, and the whole event
// stream byte-matches a committed golden fixture
// (tests/data/golden/obs_star_quarantine.ndjson, regenerated with
// `dq_obs_test --update-golden`).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "campaign/job.hpp"
#include "golden.hpp"
#include "obs/ndjson.hpp"
#include "obs/sink.hpp"
#include "simulator/runner.hpp"
#include "simulator/sharded_sim.hpp"

namespace dq::obs {
namespace {

sim::Network star_network() {
  campaign::TopologySpec topo;
  topo.kind = campaign::TopologySpec::Kind::kStar;
  topo.nodes = 120;
  topo.backbone_fraction = 1.0 / 120.0;
  topo.edge_fraction = 0.0;
  return campaign::build_network(topo);
}

sim::SimulationConfig quarantine_config() {
  sim::SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 4;
  cfg.worm.hit_probability = 0.1;  // sparse scans feed the detectors
  cfg.legit.rate_per_node = 0.2;
  cfg.quarantine.enabled = true;
  // Quarantine outlasts the horizon: a host can serve at most one
  // period, so suspected→quarantined fires at most once per host.
  cfg.quarantine.policy.base_period = 100.0;
  cfg.max_ticks = 60.0;
  cfg.stop_when_saturated = false;
  cfg.seed = 777;
  return cfg;
}

struct TracedRun {
  sim::RunResult result;
  std::vector<Event> events;
  std::string ndjson;
};

const TracedRun& traced_run() {
  static const TracedRun run = [] {
    const sim::Network net = star_network();
    MultiRunSink sink(1);
    sim::ShardedSimulation sim(net, quarantine_config(), 1, sink.run_sink(0));
    TracedRun out;
    out.result = sim.run();
    EXPECT_EQ(sink.ring(0).evicted(), 0u) << "fixture overflowed the ring";
    out.events = sink.ring(0).events();
    std::ostringstream ndjson;
    sink.write_ndjson(ndjson);
    out.ndjson = ndjson.str();
    return out;
  }();
  return run;
}

TEST(EventSemantics, ExactlyOneQuarantineTransitionPerDetectedHost) {
  const TracedRun& run = traced_run();
  std::map<std::uint32_t, int> suspected_to_quarantined;
  std::map<std::uint32_t, double> first_event_time;
  for (const Event& e : run.events) {
    if (e.kind != EventKind::kQuarantineTransition) continue;
    const auto from = static_cast<QState>(e.a);
    const auto to = static_cast<QState>(e.b);
    if (from == QState::kSuspected && to == QState::kQuarantined)
      ++suspected_to_quarantined[e.id];
    // With base_period > horizon nothing is ever released.
    EXPECT_NE(to, QState::kFree) << "host " << e.id << " released at "
                                 << e.time;
  }
  ASSERT_FALSE(suspected_to_quarantined.empty())
      << "fixture detected nothing — config drifted";
  for (const auto& [node, n] : suspected_to_quarantined)
    EXPECT_EQ(n, 1) << "host " << node << " quarantined more than once";
  // Every quarantined host matches the engine's own tally: detected
  // targets plus false positives.
  const auto quarantined_hosts =
      static_cast<double>(suspected_to_quarantined.size());
  EXPECT_DOUBLE_EQ(quarantined_hosts,
                   run.result.quarantine.detected_targets +
                       run.result.quarantine.false_positive_hosts);
  EXPECT_DOUBLE_EQ(run.result.quarantine.quarantine_events,
                   quarantined_hosts);
}

TEST(EventSemantics, StrikesArriveInSimTimeOrder) {
  const TracedRun& run = traced_run();
  double last = -1.0;
  std::size_t strikes = 0;
  for (const Event& e : run.events) {
    if (e.kind != EventKind::kDetectorStrike) continue;
    ++strikes;
    EXPECT_GE(e.time, last) << "strike at " << e.time << " out of order";
    last = e.time;
    EXPECT_GE(e.value, 1u);
  }
  EXPECT_GT(strikes, 0u);
}

TEST(EventSemantics, EveryQuarantineIsPrecededBySuspicion) {
  const TracedRun& run = traced_run();
  std::map<std::uint32_t, QState> state;
  for (const Event& e : run.events) {
    if (e.kind != EventKind::kQuarantineTransition) continue;
    const auto from = static_cast<QState>(e.a);
    const auto to = static_cast<QState>(e.b);
    const auto it = state.find(e.id);
    const QState current =
        it == state.end() ? QState::kFree : it->second;
    EXPECT_EQ(from, current)
        << "host " << e.id << " transition from inconsistent state";
    state[e.id] = to;
  }
  for (const auto& [node, s] : state) EXPECT_NE(s, QState::kFree);
}

TEST(EventSemantics, SummaryMatchesEngineReport) {
  const TracedRun& run = traced_run();
  const NdjsonSummary s = summarize_ndjson(run.ndjson);
  const quarantine::QuarantineReport& report = run.result.quarantine;
  EXPECT_EQ(static_cast<double>(s.detected_hosts), report.detected_targets);
  EXPECT_EQ(static_cast<double>(s.false_positive_hosts),
            report.false_positive_hosts);
  EXPECT_NEAR(s.mean_detection_latency, report.mean_detection_latency, 1e-9);
  EXPECT_TRUE(s.strikes_time_ordered);
  EXPECT_EQ(s.runs, 1u);
}

TEST(EventSemantics, NdjsonMatchesGoldenFixture) {
  test::expect_golden("obs_star_quarantine.ndjson", traced_run().ndjson);
}

TEST(RunManyObs, MetricsAndTracesAreThreadCountInvariant) {
  // One shared registry (commutative updates) + one private ring per
  // run: serial and 8-way parallel execution must produce identical
  // deterministic snapshots and identical concatenated NDJSON.
  const sim::Network net = star_network();
  sim::SimulationConfig cfg = quarantine_config();
  cfg.max_ticks = 30.0;
  constexpr std::size_t kRuns = 4;

  MultiRunSink serial(kRuns);
  MultiRunSink parallel(kRuns);
  (void)sim::run_many(net, cfg, kRuns, /*max_parallelism=*/1, &serial);
  (void)sim::run_many(net, cfg, kRuns, /*max_parallelism=*/8, &parallel);

  EXPECT_EQ(serial.metrics().snapshot(true).dump(),
            parallel.metrics().snapshot(true).dump());
  std::ostringstream serial_ndjson, parallel_ndjson;
  serial.write_ndjson(serial_ndjson);
  parallel.write_ndjson(parallel_ndjson);
  EXPECT_EQ(serial_ndjson.str(), parallel_ndjson.str());
  EXPECT_FALSE(serial_ndjson.str().empty());
  EXPECT_EQ(serial.metrics().counter("sim.runs").value(), kRuns);
}

TEST(RunManyObs, UndersizedSinkIsRejected) {
  const sim::Network net = star_network();
  sim::SimulationConfig cfg = quarantine_config();
  cfg.max_ticks = 5.0;
  MultiRunSink sink(1);
  EXPECT_THROW(sim::run_many(net, cfg, 2, 1, &sink), std::invalid_argument);
}

}  // namespace
}  // namespace dq::obs
