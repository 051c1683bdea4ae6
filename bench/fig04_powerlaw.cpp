// Figure 4: random-propagation worm on the 1000-node power-law graph
// with rate limiting at 5% of end hosts, edge routers, and backbone
// routers. The paper: backbone RL makes reaching 50% infection take
// ~5x as long as host/edge deployments. The four deployments run as
// campaign jobs on the job threads; artifacts cache under .dq-cache.
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dq;
  const campaign::CampaignReport report =
      bench::run_scenario("fig04", argc, argv);
  const core::FigureData& fig = bench::figure_of(report, "fig4");
  bench::print_figure(fig, argc, argv);

  const double t_none = fig.find("no-RL").time_to_reach(0.5);
  const double t_host = fig.find("5%-host-RL").time_to_reach(0.5);
  const double t_edge = fig.find("edge-RL").time_to_reach(0.5);
  const double t_backbone = fig.find("backbone-RL").time_to_reach(0.5);

  std::cout << std::fixed << std::setprecision(2);
  std::cout << "time to 50% infection (ticks):\n";
  std::cout << "  no-RL       : " << t_none << '\n';
  std::cout << "  5%-host-RL  : " << t_host << '\n';
  std::cout << "  edge-RL     : " << t_edge << '\n';
  std::cout << "  backbone-RL : " << t_backbone << '\n';
  if (t_backbone > 0.0 && t_host > 0.0)
    std::cout << "paper claim ~5x: backbone/host ratio = "
              << t_backbone / t_host << "x, backbone/edge = "
              << (t_edge > 0 ? t_backbone / t_edge : -1.0) << "x\n";
  else
    std::cout << "backbone-RL did not reach 50% within the horizon (>"
              << fig.find("backbone-RL").back_time() << " ticks; no-RL "
              << t_none << ") — an even stronger slowdown\n";
  return 0;
}
