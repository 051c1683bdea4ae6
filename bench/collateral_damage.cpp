// Collateral damage: what does each defense cost legitimate traffic?
// The paper argues rate limits can be chosen so that "normal traffic
// gets routed"; blacklists, by contrast, destroy an infected host's
// legitimate traffic outright. This bench measures both sides: worm
// slowdown vs legitimate delay/drops, across defenses and link budgets.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"
#include "graph/builders.hpp"
#include "simulator/runner.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const auto options = bench::options_from_args(argc, argv);
  std::cout << std::fixed << std::setprecision(2);

  Rng rng(options.seed ^ 0xbf58476d1ce4e5b9ULL);
  const sim::Network net(graph::make_barabasi_albert(600, 2, rng));

  struct Row {
    std::string name;
    double t50;
    double delivered_pct;
    double dropped_pct;
    double mean_delay;
    double max_delay;
  };

  auto measure = [&](const std::string& name, auto configure) {
    sim::SimulationConfig cfg;
    cfg.worm.contact_rate = 0.8;
    cfg.worm.initial_infected = 1;
    cfg.legit.rate_per_node = 0.2;
    cfg.max_ticks = 80.0;
    cfg.seed = options.seed;
    configure(cfg);
    // Collateral metrics need raw run results; average a few runs.
    double t50 = 0.0, delivered = 0.0, dropped = 0.0, mean_delay = 0.0,
           max_delay = 0.0;
    const std::size_t runs = std::max<std::size_t>(3, options.sim_runs / 2);
    for (std::size_t r = 0; r < runs; ++r) {
      sim::SimulationConfig one = cfg;
      one.seed = sim::run_seed(cfg.seed, r);
      const sim::RunResult result = sim::ShardedSimulation(net, one, 1).run();
      const double t = result.ever_infected.time_to_reach(0.5);
      t50 += (t < 0 ? cfg.max_ticks : t);
      const double sent = static_cast<double>(result.legit_sent);
      delivered += static_cast<double>(result.legit_delivered) / sent;
      dropped += static_cast<double>(result.legit_dropped) / sent;
      mean_delay += result.mean_legit_delay;
      max_delay = std::max(max_delay, result.max_legit_delay);
    }
    const double n = static_cast<double>(runs);
    return Row{name,          t50 / n,        100.0 * delivered / n,
               100.0 * dropped / n, mean_delay / n, max_delay};
  };

  std::vector<Row> rows;
  rows.push_back(measure("none", [](sim::SimulationConfig&) {}));
  for (double capacity : {10.0, 2.0, 0.5}) {
    rows.push_back(measure(
        "backbone RL, flat " + std::to_string(capacity).substr(0, 4) +
            " pkt/tick",
        [&](sim::SimulationConfig& cfg) {
          cfg.deployment.backbone_limited = true;
          cfg.deployment.weight_by_routing_load = false;
          cfg.deployment.base_link_capacity = capacity;
          cfg.deployment.min_link_capacity = capacity;
        }));
  }
  rows.push_back(measure("backbone RL, weighted (paper rule)",
                         [](sim::SimulationConfig& cfg) {
                           cfg.deployment.backbone_limited = true;
                         }));
  rows.push_back(
      measure("blacklist, reaction 5", [](sim::SimulationConfig& cfg) {
        cfg.response.kind = sim::ResponseConfig::Kind::kBlacklist;
        cfg.response.reaction_time = 5.0;
        cfg.response.filters_everywhere = true;
      }));
  rows.push_back(
      measure("content filter, reaction 5", [](sim::SimulationConfig& cfg) {
        cfg.response.kind = sim::ResponseConfig::Kind::kContentFilter;
        cfg.response.reaction_time = 5.0;
        cfg.response.filters_everywhere = true;
      }));

  std::cout << std::left << std::setw(36) << "defense" << std::right
            << std::setw(8) << "t50" << std::setw(12) << "delivered"
            << std::setw(10) << "dropped" << std::setw(12) << "avg delay"
            << std::setw(12) << "max delay" << '\n';
  for (const Row& row : rows) {
    std::cout << std::left << std::setw(36) << row.name << std::right
              << std::setw(8) << row.t50 << std::setw(11)
              << row.delivered_pct << "%" << std::setw(9)
              << row.dropped_pct << "%" << std::setw(12) << row.mean_delay
              << std::setw(12) << row.max_delay << '\n';
  }
  std::cout << "\nreadings: rate limiting trades worm speed against "
               "queueing delay but never destroys legitimate packets; "
               "blacklisting drops the legitimate traffic of every "
               "infected host; content filtering is surgical but needs "
               "a signature.\n";
  return 0;
}
