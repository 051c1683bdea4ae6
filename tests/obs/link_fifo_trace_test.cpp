// Link-FIFO order on a fixed-seed rate-limited power-law run: edge and
// backbone links are limited with routing-weighted capacities (the
// whole-packet floor on light links, fractional shares above it on
// heavy ones) and legitimate traffic shares their queues with the worm.
// The whole per-event trace, every park and release included,
// byte-matches a committed golden fixture
// (tests/data/golden/obs_backbone_rl.ndjson, regenerated with
// `dq_obs_test --update-golden`), so any change to which link releases
// which packet when shows up as a diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "golden.hpp"
#include "graph/builders.hpp"
#include "obs/sink.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/rng.hpp"

namespace dq::obs {
namespace {

struct TracedRun {
  std::vector<Event> events;
  std::string ndjson;
  std::size_t whole_links = 0;       ///< limited links with capacity 1
  std::size_t fractional_links = 0;  ///< limited links above the floor
};

const TracedRun& traced_run() {
  static const TracedRun run = [] {
    Rng build(11);
    const sim::Network net(graph::make_barabasi_albert(60, 2, build));
    sim::SimulationConfig cfg;
    cfg.worm.contact_rate = 0.8;
    cfg.worm.initial_infected = 2;
    cfg.legit.rate_per_node = 0.05;
    cfg.deployment.edge_router_limited = true;
    cfg.deployment.backbone_limited = true;
    cfg.deployment.weight_by_routing_load = true;
    cfg.deployment.base_link_capacity = 100.0;
    cfg.deployment.min_link_capacity = 1.0;
    cfg.max_ticks = 25.0;
    cfg.stop_when_saturated = false;
    cfg.seed = 2026;

    MultiRunSink sink(1);
    sim::ShardedSimulation sim(net, cfg, 1, sink.run_sink(0));
    (void)sim.run();
    TracedRun out;
    EXPECT_EQ(sink.ring(0).evicted(), 0u) << "fixture overflowed the ring";
    out.events = sink.ring(0).events();
    std::ostringstream ndjson;
    sink.write_ndjson(ndjson);
    out.ndjson = ndjson.str();
    for (std::size_t l = 0; l < net.num_links(); ++l) {
      const double capacity = sim.link_capacity(l);
      if (capacity == 1.0)
        ++out.whole_links;
      else if (capacity > 1.0)
        ++out.fractional_links;
    }
    return out;
  }();
  return run;
}

TEST(LinkFifoTrace, FixtureExercisesManyLinkQueues) {
  const TracedRun& run = traced_run();
  std::set<std::uint32_t> released_links;
  std::size_t releases = 0;
  for (const Event& e : run.events) {
    if (e.kind != EventKind::kQueueRelease) continue;
    EXPECT_EQ(e.a, 0) << "only links queue in this run";
    ++releases;
    released_links.insert(e.id);
  }
  EXPECT_GE(releases, 100u);
  EXPECT_GE(released_links.size(), 20u);
  EXPECT_GT(run.whole_links, 0u);
  EXPECT_GT(run.fractional_links, 0u);
  EXPECT_LT(run.events.size(), 2000u) << "keep the fixture reviewable";
}

TEST(LinkFifoTrace, NdjsonMatchesGoldenFixture) {
  test::expect_golden("obs_backbone_rl.ndjson", traced_run().ndjson);
}

}  // namespace
}  // namespace dq::obs
