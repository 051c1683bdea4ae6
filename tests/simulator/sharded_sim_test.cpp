// The simulation engine: its load-bearing promise — trajectories are
// a pure function of (network, config), so the shard count must never
// show through — plus the mechanism checks (validation, host filters,
// link and hub limiters, immunization, the step interface). Each
// invariance test runs the same scenario at 1, 2, 3, and 7 shards and
// demands bit-identical results everywhere a number comes out; the
// randomized sweep over every mechanism is shard_property_test.cpp.
#include "simulator/sharded_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <vector>

#include "graph/builders.hpp"
#include "obs/sink.hpp"

namespace dq::sim {
namespace {

void expect_series_identical(const TimeSeries& a, const TimeSeries& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.times(), b.times());
  EXPECT_EQ(a.values(), b.values());
}

void expect_identical(const RunResult& a, const RunResult& b) {
  expect_series_identical(a.active_infected, b.active_infected);
  expect_series_identical(a.ever_infected, b.ever_infected);
  expect_series_identical(a.removed, b.removed);
  expect_series_identical(a.seed_subnet_infected, b.seed_subnet_infected);
  EXPECT_EQ(a.immunization_start_tick, b.immunization_start_tick);
  EXPECT_EQ(a.detection_tick, b.detection_tick);
  EXPECT_EQ(a.total_scan_packets, b.total_scan_packets);
  EXPECT_EQ(a.final_ever_infected_count, b.final_ever_infected_count);
  EXPECT_EQ(a.quarantine_dropped_packets, b.quarantine_dropped_packets);
  EXPECT_EQ(a.perf.ticks, b.perf.ticks);
  EXPECT_EQ(a.perf.packets_forwarded, b.perf.packets_forwarded);
  EXPECT_EQ(a.quarantine.target_hosts, b.quarantine.target_hosts);
  EXPECT_EQ(a.quarantine.benign_hosts, b.quarantine.benign_hosts);
  EXPECT_EQ(a.quarantine.detected_targets, b.quarantine.detected_targets);
  EXPECT_EQ(a.quarantine.detection_rate, b.quarantine.detection_rate);
  EXPECT_EQ(a.quarantine.mean_detection_latency,
            b.quarantine.mean_detection_latency);
  EXPECT_EQ(a.quarantine.false_positive_hosts,
            b.quarantine.false_positive_hosts);
  EXPECT_EQ(a.quarantine.false_positive_rate,
            b.quarantine.false_positive_rate);
  EXPECT_EQ(a.quarantine.benign_quarantine_time,
            b.quarantine.benign_quarantine_time);
  EXPECT_EQ(a.quarantine.target_quarantine_time,
            b.quarantine.target_quarantine_time);
  EXPECT_EQ(a.quarantine.quarantine_events, b.quarantine.quarantine_events);
}

void expect_shard_invariant(const Network& net,
                            const SimulationConfig& cfg) {
  const RunResult base = ShardedSimulation(net, cfg, 1).run();
  // The interesting outcome: something actually happened.
  ASSERT_GT(base.final_ever_infected_count, cfg.worm.initial_infected);
  for (std::size_t shards : {2u, 3u, 7u}) {
    SCOPED_TRACE(shards);
    const RunResult result = ShardedSimulation(net, cfg, shards).run();
    expect_identical(base, result);
  }
}

SimulationConfig scale_config() {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 1.2;
  cfg.worm.initial_infected = 3;
  cfg.max_ticks = 30.0;
  cfg.seed = 42;
  return cfg;
}

TEST(ShardedSim, ShardCountInvariantDense) {
  Rng rng(11);
  const Network net(graph::make_barabasi_albert(500, 2, rng));
  expect_shard_invariant(net, scale_config());
}

TEST(ShardedSim, ShardCountInvariantSparseWithDetector) {
  Rng rng(12);
  const Network net(graph::make_barabasi_albert(500, 2, rng));
  SimulationConfig cfg = scale_config();
  cfg.worm.hit_probability = 0.4;
  cfg.detector.enabled = true;
  cfg.detector.observe_probability = 0.05;
  cfg.detector.threshold = 8;
  cfg.max_ticks = 40.0;
  expect_shard_invariant(net, cfg);
}

TEST(ShardedSim, ShardCountInvariantSubnetLocalPreferential) {
  Rng rng(13);
  const Network net(graph::make_subnet_topology(8, 40, rng));
  SimulationConfig cfg = scale_config();
  cfg.worm.selection = TargetSelection::kLocalPreferential;
  cfg.worm.local_bias = 0.7;
  expect_shard_invariant(net, cfg);
}

TEST(ShardedSim, ShardCountInvariantQuarantineAndImmunization) {
  Rng rng(14);
  const Network net(graph::make_barabasi_albert(400, 2, rng));
  SimulationConfig cfg = scale_config();
  cfg.worm.hit_probability = 0.5;
  cfg.worm.filtered_contact_rate = 0.05;
  cfg.deployment.host_filter_fraction = 0.3;
  cfg.quarantine.enabled = true;
  cfg.quarantine.detector.window = 3.0;
  cfg.quarantine.detector.contact_rate_threshold = 4.0;
  cfg.quarantine.policy.base_period = 10.0;
  cfg.immunization.enabled = true;
  cfg.immunization.start_at_infected_fraction = 0.3;
  cfg.immunization.rate = 0.05;
  cfg.max_ticks = 50.0;
  expect_shard_invariant(net, cfg);
}

TEST(ShardedSim, ShardCountInvariantThrottleQuarantine) {
  Rng rng(15);
  const Network net(graph::make_barabasi_albert(300, 2, rng));
  SimulationConfig cfg = scale_config();
  cfg.worm.hit_probability = 0.6;
  cfg.quarantine.enabled = true;
  cfg.quarantine.detector.window = 3.0;
  cfg.quarantine.detector.contact_rate_threshold = 4.0;
  cfg.quarantine.policy.treatment = quarantine::Treatment::kThrottle;
  cfg.quarantine.policy.throttle_rate = 0.1;
  cfg.quarantine.policy.base_period = 8.0;
  cfg.max_ticks = 40.0;
  expect_shard_invariant(net, cfg);
}

TEST(ShardedSim, RepeatedRunsAreDeterministic) {
  Rng rng(16);
  const Network net(graph::make_barabasi_albert(300, 2, rng));
  const SimulationConfig cfg = scale_config();
  const RunResult a = ShardedSimulation(net, cfg, 4).run();
  const RunResult b = ShardedSimulation(net, cfg, 4).run();
  expect_identical(a, b);
}

TEST(ShardedSim, SeedChangesTheTrajectory) {
  Rng rng(17);
  const Network net(graph::make_barabasi_albert(300, 2, rng));
  SimulationConfig cfg = scale_config();
  const RunResult a = ShardedSimulation(net, cfg, 2).run();
  cfg.seed += 1;
  const RunResult b = ShardedSimulation(net, cfg, 2).run();
  EXPECT_NE(a.total_scan_packets, b.total_scan_packets);
}

TEST(ShardedSim, WorksOnTreeRoutedNetworksWithoutDenseTables) {
  Rng rng(18);
  NetworkOptions opts;
  opts.routing_table_bytes = 0;  // tree routing even at this size
  const Network net(graph::make_barabasi_albert(400, 2, rng), 0.05, 0.10,
                    opts);
  expect_shard_invariant(net, scale_config());
}

TEST(ShardedSim, StepInterfaceMatchesSerialShape) {
  Rng rng(19);
  const Network net(graph::make_barabasi_albert(200, 2, rng));
  SimulationConfig cfg = scale_config();
  ShardedSimulation sim(net, cfg, 3);
  EXPECT_EQ(sim.tick(), 0.0);
  EXPECT_EQ(sim.ever_infected_count(), cfg.worm.initial_infected);
  sim.step();
  EXPECT_EQ(sim.tick(), 1.0);
  EXPECT_GE(sim.ever_infected_count(), cfg.worm.initial_infected);
}

SimulationConfig base_config() {
  SimulationConfig cfg;
  cfg.worm.contact_rate = 0.8;
  cfg.worm.filtered_contact_rate = 0.01;
  cfg.worm.initial_infected = 1;
  cfg.max_ticks = 100.0;
  cfg.seed = 7;
  return cfg;
}

Network star_net(std::size_t n = 50) {
  return Network(graph::make_star(n), 1.0 / static_cast<double>(n), 0.0);
}

TEST(ShardedSim, Validation) {
  const Network net = star_net();
  SimulationConfig cfg = base_config();
  cfg.worm.contact_rate = 0.0;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.worm.filtered_contact_rate = 1.0;  // above β
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.worm.initial_infected = 0;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.worm.initial_infected = 50;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.deployment.host_filter_fraction = 1.5;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.immunization.enabled = true;
  cfg.immunization.rate = 0.0;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.deployment.node_forward_cap = {99u, 1u};
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
  cfg = base_config();
  cfg.max_ticks = 0.0;
  EXPECT_THROW(ShardedSimulation(net, cfg, 1), std::invalid_argument);
}

TEST(ShardedSim, InitialStateAfterConstruction) {
  const Network net = star_net();
  SimulationConfig cfg = base_config();
  cfg.worm.initial_infected = 3;
  ShardedSimulation sim(net, cfg, 1);
  EXPECT_DOUBLE_EQ(sim.tick(), 0.0);
  EXPECT_EQ(sim.ever_infected_count(), 3u);
  EXPECT_EQ(sim.active_infected_count(), 3u);
}

TEST(ShardedSim, DeterministicForSeed) {
  const Network net = star_net();
  ShardedSimulation a(net, base_config(), 1);
  ShardedSimulation b(net, base_config(), 1);
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  ASSERT_EQ(ra.ever_infected.size(), rb.ever_infected.size());
  for (std::size_t i = 0; i < ra.ever_infected.size(); ++i)
    EXPECT_DOUBLE_EQ(ra.ever_infected.value_at(i),
                     rb.ever_infected.value_at(i));
  EXPECT_EQ(ra.total_scan_packets, rb.total_scan_packets);
}

TEST(ShardedSim, DifferentSeedsDiffer) {
  const Network net = star_net();
  SimulationConfig cfg = base_config();
  ShardedSimulation a(net, cfg, 1);
  cfg.seed = 8;
  ShardedSimulation b(net, cfg, 1);
  EXPECT_NE(a.run().total_scan_packets, b.run().total_scan_packets);
}

TEST(ShardedSim, UnlimitedWormSaturates) {
  const Network net = star_net();
  ShardedSimulation sim(net, base_config(), 1);
  const RunResult result = sim.run();
  EXPECT_EQ(result.final_ever_infected_count, net.num_nodes());
  EXPECT_DOUBLE_EQ(result.ever_infected.back_value(), 1.0);
  // Saturation should stop the run well before max_ticks.
  EXPECT_LT(result.ever_infected.back_time(), 100.0);
}

TEST(ShardedSim, EverInfectedMonotone) {
  const Network net = star_net();
  ShardedSimulation sim(net, base_config(), 1);
  const RunResult result = sim.run();
  double prev = 0.0;
  for (std::size_t i = 0; i < result.ever_infected.size(); ++i) {
    EXPECT_GE(result.ever_infected.value_at(i), prev);
    prev = result.ever_infected.value_at(i);
  }
}

TEST(ShardedSim, HostFiltersAssignedToRequestedFraction) {
  Rng rng(1);
  const Network net(graph::make_barabasi_albert(200, 2, rng));
  SimulationConfig cfg = base_config();
  cfg.deployment.host_filter_fraction = 0.3;
  ShardedSimulation sim(net, cfg, 1);
  std::size_t filtered = 0;
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v)
    filtered += sim.host_filtered(v);
  const std::size_t hosts = net.roles().hosts.size();
  EXPECT_NEAR(static_cast<double>(filtered), 0.3 * hosts, 1.0);
  // Filters only on hosts, never on routers.
  for (graph::NodeId b : net.roles().backbone)
    EXPECT_FALSE(sim.host_filtered(b));
  for (graph::NodeId e : net.roles().edge)
    EXPECT_FALSE(sim.host_filtered(e));
}

TEST(ShardedSim, FullHostFilteringSlowsSpread) {
  const Network net = star_net(100);
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 30.0;
  const RunResult fast = ShardedSimulation(net, cfg, 1).run();
  cfg.deployment.host_filter_fraction = 1.0;
  const RunResult slow = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GT(fast.ever_infected.back_value(),
            slow.ever_infected.back_value() + 0.3);
}

TEST(ShardedSim, LinkCapacityWeighting) {
  Rng rng(2);
  const Network net(graph::make_barabasi_albert(100, 2, rng));
  SimulationConfig cfg = base_config();
  cfg.deployment.backbone_limited = true;
  cfg.deployment.base_link_capacity = 10.0;
  cfg.deployment.min_link_capacity = 0.1;
  ShardedSimulation sim(net, cfg, 1);
  double max_cap = 0.0;
  std::size_t limited = 0;
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    const double cap = sim.link_capacity(l);
    if (net.link_is_backbone(l)) {
      ++limited;
      EXPECT_GE(cap, 0.1);
      max_cap = std::max(max_cap, cap);
    } else {
      EXPECT_DOUBLE_EQ(cap, 0.0);
    }
  }
  EXPECT_GT(limited, 0u);
  // The weighted share rule gives heavily-routed links more capacity
  // than the floor.
  EXPECT_GT(max_cap, 0.1);
}

TEST(ShardedSim, UnweightedCapacityIsFlat) {
  Rng rng(3);
  const Network net(graph::make_barabasi_albert(100, 2, rng));
  SimulationConfig cfg = base_config();
  cfg.deployment.edge_router_limited = true;
  cfg.deployment.weight_by_routing_load = false;
  cfg.deployment.base_link_capacity = 3.0;
  ShardedSimulation sim(net, cfg, 1);
  for (std::size_t l = 0; l < net.num_links(); ++l)
    if (net.link_is_edge(l)) {
      EXPECT_DOUBLE_EQ(sim.link_capacity(l), 3.0);
    }
}

TEST(ShardedSim, HubCapSlowsStar) {
  const Network net = star_net(100);
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 40.0;
  const RunResult fast = ShardedSimulation(net, cfg, 1).run();
  cfg.deployment.node_forward_cap = {0u, 2u};
  const RunResult slow = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GT(fast.ever_infected.back_value(),
            slow.ever_infected.back_value() + 0.2);
  EXPECT_GT(slow.total_queued_packet_events, 0u);
}

TEST(ShardedSim, CappedHubDrainsQueueInEmitOrder) {
  // Regression for FIFO fairness: queued packets must leave in the
  // order they were parked, across ticks. On a star whose hub forwards
  // one packet per tick, a sequential-scanning infected hub emits
  // targets c, c+1, c+2, ... — so exactly one leaf is infected per
  // tick, in that cyclic id order. Any reordering in the queue drain
  // breaks the sequence.
  SimulationConfig cfg = base_config();
  cfg.worm.contact_rate = 20.0;  // hub queues many scans per tick
  cfg.worm.selection = TargetSelection::kSequential;
  cfg.deployment.node_forward_cap = {0u, 1u};
  cfg.stop_when_saturated = false;
  cfg.max_ticks = 20.0;

  const Network net = star_net(8);
  // Pick a seed whose single initial infection lands on the hub.
  std::optional<ShardedSimulation> sim;
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    cfg.seed = seed;
    sim.emplace(net, cfg, 1);
    if (sim->state(0) == NodeState::kInfected) break;
  }
  ASSERT_EQ(sim->state(0), NodeState::kInfected);

  std::vector<NodeId> infection_order;
  for (int t = 1; t <= 7; ++t) {
    const std::uint64_t before = sim->ever_infected_count();
    sim->step();
    ASSERT_EQ(sim->ever_infected_count(), before + 1)
        << "exactly one release per tick " << t;
    for (NodeId v = 1; v < 8; ++v)
      if (sim->state(v) == NodeState::kInfected &&
          std::find(infection_order.begin(), infection_order.end(), v) ==
              infection_order.end())
        infection_order.push_back(v);
    ASSERT_EQ(infection_order.size(), static_cast<std::size_t>(t));
  }
  // Leaves came up in consecutive cyclic id order (hub id 0 skipped).
  for (std::size_t i = 1; i < infection_order.size(); ++i) {
    NodeId expected = (infection_order[i - 1] + 1) % 8;
    if (expected == 0) expected = 1;
    EXPECT_EQ(infection_order[i], expected) << "position " << i;
  }
}

TEST(ShardedSim, PerfCountersTrackTickLoop) {
  const Network net = star_net(30);
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 12.0;
  cfg.stop_when_saturated = false;
  const RunResult free = ShardedSimulation(net, cfg, 1).run();
  EXPECT_EQ(free.perf.ticks, 12u);
  EXPECT_GT(free.perf.packets_forwarded, 0u);
  EXPECT_GE(free.perf.packets_forwarded, free.total_scan_packets);
  // Nothing can be in flight, so packets are delivered without walking
  // their paths.
  EXPECT_EQ(free.perf.link_hops, 0u);
  EXPECT_GE(free.perf.total_seconds(), 0.0);

  // A hub cap puts packets in flight: the forward phase walks every
  // leaf-to-leaf path (two hops) and queues at the hub.
  cfg.deployment.node_forward_cap = {0u, 3u};
  const RunResult capped = ShardedSimulation(net, cfg, 1).run();
  EXPECT_GE(capped.perf.packets_forwarded, capped.total_scan_packets);
  EXPECT_GE(capped.perf.link_hops, capped.perf.packets_forwarded / 2);
  EXPECT_GT(capped.perf.queue_events, 0u);
  EXPECT_EQ(capped.perf.queue_events, capped.total_queued_packet_events);
  EXPECT_GT(capped.perf.seconds_forward, 0.0);
}

TEST(ShardedSim, ImmunizationRemovesAndStops) {
  const Network net = star_net(100);
  SimulationConfig cfg = base_config();
  cfg.immunization.enabled = true;
  cfg.immunization.rate = 0.2;
  cfg.immunization.start_at_tick = 3.0;
  cfg.max_ticks = 120.0;
  ShardedSimulation sim(net, cfg, 1);
  const RunResult result = sim.run();
  EXPECT_GE(result.immunization_start_tick, 3.0);
  EXPECT_GT(result.removed.back_value(), 0.9);
  // Active infection dies out once everyone is patched.
  EXPECT_LT(result.active_infected.back_value(), 0.05);
  // Ever-infected is capped below 1 by early patching.
  EXPECT_LT(result.ever_infected.back_value(), 1.0);
}

TEST(ShardedSim, ImmunizationTriggeredByFraction) {
  const Network net = star_net(100);
  SimulationConfig cfg = base_config();
  cfg.immunization.enabled = true;
  cfg.immunization.rate = 0.1;
  cfg.immunization.start_at_infected_fraction = 0.5;
  cfg.max_ticks = 60.0;
  ShardedSimulation sim(net, cfg, 1);
  const RunResult result = sim.run();
  ASSERT_GE(result.immunization_start_tick, 0.0);
  // At the trigger tick the epidemic had reached ~50%.
  const double at_start =
      result.ever_infected.interpolate(result.immunization_start_tick);
  EXPECT_GE(at_start, 0.45);
}

TEST(ShardedSim, LocalPreferentialStaysLocalFirst) {
  Rng rng(4);
  const Network net(graph::make_subnet_topology(10, 10, rng));
  SimulationConfig cfg = base_config();
  cfg.worm.selection = TargetSelection::kLocalPreferential;
  cfg.worm.local_bias = 0.95;
  cfg.max_ticks = 6.0;
  cfg.stop_when_saturated = false;
  ShardedSimulation sim(net, cfg, 1);
  const RunResult result = sim.run();
  // The seed subnet is far ahead of the global average early on.
  ASSERT_FALSE(result.seed_subnet_infected.empty());
  EXPECT_GT(result.seed_subnet_infected.back_value(),
            result.ever_infected.back_value() * 2.0);
}

TEST(ShardedSim, SeedSubnetSeriesOnlyOnSubnetTopologies) {
  const Network net = star_net();
  ShardedSimulation sim(net, base_config(), 1);
  EXPECT_TRUE(sim.run().seed_subnet_infected.empty());
}

TEST(ShardedSim, StepAdvancesTick) {
  const Network net = star_net();
  ShardedSimulation sim(net, base_config(), 1);
  sim.step();
  EXPECT_DOUBLE_EQ(sim.tick(), 1.0);
  sim.step();
  EXPECT_DOUBLE_EQ(sim.tick(), 2.0);
}

TEST(ShardedSim, StepPastHorizonThrows) {
  // The run ends at ceil(max_ticks): run() stops there and step()
  // refuses to go further, with or without packets in flight.
  const Network net = star_net();
  SimulationConfig cfg = base_config();
  cfg.max_ticks = 2.5;
  cfg.stop_when_saturated = false;
  for (const bool limited : {false, true}) {
    cfg.deployment.backbone_limited = limited;
    ShardedSimulation stepped(net, cfg, 1);
    for (int t = 0; t < 3; ++t) stepped.step();
    EXPECT_DOUBLE_EQ(stepped.tick(), 3.0);
    EXPECT_THROW(stepped.step(), std::logic_error);
    EXPECT_DOUBLE_EQ(stepped.tick(), 3.0);

    ShardedSimulation ran(net, cfg, 1);
    EXPECT_EQ(ran.run().perf.ticks, 3u);
    EXPECT_THROW(ran.step(), std::logic_error);
  }
}

TEST(ShardedSim, QueueReleasedInfectionScansFromNextTick) {
  // An 8-node star whose hub forwards one packet per tick, with the
  // hub the only initial infection, scanning 1000 times per tick in
  // sequence: after tick 1 every new infection is a packet released
  // from the hub's FIFO, one per tick. At that rate a tick's scan
  // count divided by 1000 rounds to the number of nodes that scanned,
  // which must be the nodes infected before the tick began.
  SimulationConfig cfg = base_config();
  cfg.worm.contact_rate = 1000.0;
  cfg.worm.selection = TargetSelection::kSequential;
  cfg.deployment.node_forward_cap = {0u, 1u};
  cfg.stop_when_saturated = false;
  const Network net = star_net(8);
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    cfg.seed = seed;
    if (ShardedSimulation(net, cfg, 1).state(0) == NodeState::kInfected)
      break;
  }
  ASSERT_EQ(ShardedSimulation(net, cfg, 1).state(0), NodeState::kInfected);

  constexpr int kTicks = 6;
  cfg.max_ticks = kTicks;
  obs::MultiRunSink sink(1);
  const RunResult traced = ShardedSimulation(net, cfg, 1, sink.run_sink(0)).run();
  std::vector<int> infections(kTicks + 1, 0), releases(kTicks + 1, 0);
  for (const obs::Event& e : sink.ring(0).events()) {
    const auto t = static_cast<std::size_t>(e.time);
    if (e.kind == obs::EventKind::kInfection) ++infections[t];
    if (e.kind == obs::EventKind::kQueueRelease) {
      EXPECT_EQ(e.a, 1u) << "released at the hub";
      ++releases[t];
    }
  }
  EXPECT_EQ(infections[0], 1);
  for (int t = 1; t <= kTicks; ++t) {
    EXPECT_EQ(infections[t], 1) << "tick " << t;
    EXPECT_EQ(releases[t], t == 1 ? 0 : 1) << "tick " << t;
  }

  std::uint64_t before = 0;
  for (int t = 1; t <= kTicks; ++t) {
    cfg.max_ticks = t;
    const std::uint64_t total =
        ShardedSimulation(net, cfg, 1).run().total_scan_packets;
    const double scanners =
        std::round(static_cast<double>(total - before) / 1000.0);
    EXPECT_EQ(scanners, static_cast<double>(t))
        << "tick " << t << ": only the hub and the " << t - 1
        << " leaves infected before it scan";
    before = total;
  }
  EXPECT_EQ(before, traced.total_scan_packets);
}

TEST(ShardedSim, TraceSinkNeedsOneShard) {
  const Network net = star_net();
  obs::MultiRunSink sink(1);
  EXPECT_THROW(ShardedSimulation(net, base_config(), 2, sink.run_sink(0)),
               std::invalid_argument);
  EXPECT_NO_THROW(ShardedSimulation(net, base_config(), 1, sink.run_sink(0)));
  // Metrics alone carry no per-event stream and work at any count.
  obs::Sink metrics_only;
  metrics_only.metrics = &sink.metrics();
  EXPECT_NO_THROW(ShardedSimulation(net, base_config(), 3, metrics_only));
}

}  // namespace
}  // namespace dq::sim
