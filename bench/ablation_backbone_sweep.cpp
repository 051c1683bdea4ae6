// Ablation: backbone deployment depth. Sweeps the fraction of
// highest-degree nodes designated (and rate-limited) as backbone
// routers, and separately the analytical path-coverage α, reporting the
// slowdown each buys. DESIGN.md: how much backbone is enough? The six
// simulated depths run as campaign jobs (job threads + artifact
// cache); the measured α is recomputed here from each job's own
// TopologySpec, so it always matches the cached curves. The depths
// differ only in roles, so their graph is routed once.
#include <iomanip>
#include <iostream>
#include <memory>

#include "bench_util.hpp"
#include "epidemic/backbone_model.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  std::cout << std::fixed << std::setprecision(2);

  std::cout << "== analytical: slowdown vs path coverage alpha "
               "(lambda = beta(1-alpha)) ==\n";
  for (double alpha : {0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    epidemic::BackboneParams p;
    p.population = 1000.0;
    p.contact_rate = 0.8;
    p.path_coverage = alpha;
    p.initial_infected = 1.0;
    const epidemic::BackboneModel model(p);
    std::cout << "  alpha=" << std::setw(5) << alpha << "  t50="
              << std::setw(8) << model.time_to_level(0.5) << "  slowdown="
              << 1.0 / (1.0 - alpha) << "x\n";
  }

  const campaign::CampaignReport report =
      bench::run_scenario("ablation-backbone-depth", argc, argv);

  std::cout << "\n== simulated: slowdown vs backbone designation depth "
               "(1000-node power-law) ==\n";
  std::cout << "  depth   covered-paths   t50(ticks)   slowdown\n";

  double t50_base = -1.0;
  std::shared_ptr<const sim::RoutedTopology> topology;
  for (double depth : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    const campaign::JobOutcome& outcome = bench::outcome_of(
        report,
        "ablation-backbone-depth/depth-" + campaign::format_double(depth));
    // Measured α: fraction of host-to-host paths crossing the
    // backbone, on the network the campaign job built: the shared
    // graph under this depth's roles.
    if (topology == nullptr)
      topology = sim::build_topology(outcome.config.topology);
    const sim::Network net =
        sim::build_network(outcome.config.topology, topology);
    const double alpha =
        depth == 0.0
            ? 0.0
            : net.routing().path_coverage(
                  net.roles().hosts,
                  net.roles().indicator(graph::NodeRole::kBackboneRouter));

    const sim::AveragedResult& result = *outcome.sim_result;
    const double t50 = result.ever_infected.time_to_reach(0.5);
    if (depth == 0.0) t50_base = t50;
    std::cout << "  " << std::setw(5) << depth << "   " << std::setw(13)
              << alpha << "   " << std::setw(10)
              << (t50 < 0 ? -1.0 : t50) << "   ";
    if (t50 > 0 && t50_base > 0)
      std::cout << t50 / t50_base << "x";
    else
      std::cout << ">" << 200.0 / t50_base << "x";
    std::cout << '\n';
  }
  std::cout << "\ntakeaway: even the top 1-2% of nodes cover most paths "
               "in a power-law topology — backbone filtering is cheap "
               "to deploy and dominant in effect.\n";
  return 0;
}
