// Analytical-model experiments: Figures 1(a), 2, 3, 7, 10, with the
// β and β₂ of experiments.hpp.
#include "core/experiments.hpp"

#include <cmath>
#include <stdexcept>

#include "epidemic/edge_router_model.hpp"
#include "epidemic/hub_model.hpp"
#include "epidemic/immunization.hpp"
#include "epidemic/partial_deployment.hpp"
#include "epidemic/si_model.hpp"

namespace dq::core {

namespace {

TimeSeries leaf_curve(double population, double q,
                      const std::vector<double>& grid) {
  epidemic::PartialDeploymentParams p;
  p.population = population;
  p.deployed_fraction = q;
  p.unfiltered_rate = kBeta;
  p.filtered_rate = kBeta2;
  p.initial_infected = 1.0;
  return epidemic::PartialDeploymentModel(p).closed_form(grid);
}

}  // namespace

FigureData fig1a_star_analytical() {
  // 200-node star, t in [0, 50] (Figure 1(a)).
  const std::vector<double> grid = uniform_grid(0.0, 50.0, 201);
  constexpr double kN = 200.0;

  FigureData fig{"fig1a",
                 "Analytical model for rate limiting on a star graph",
                 "time",
                 "fraction of nodes infected",
                 {}};
  fig.series.push_back({"no-RL", leaf_curve(kN, 0.0, grid)});
  fig.series.push_back({"10%-leaf-RL", leaf_curve(kN, 0.10, grid)});
  fig.series.push_back({"30%-leaf-RL", leaf_curve(kN, 0.30, grid)});

  // Hub rate limiting: unthrottled leaf links (γ = β₁) but the hub
  // forwards at most 6 contacts per tick — chosen so that reaching 60%
  // infection takes ~3x longer than with 30% leaf deployment, the
  // ratio the paper reports for Figure 1.
  epidemic::HubModelParams hub;
  hub.population = kN;
  hub.link_rate = kBeta;
  hub.hub_rate = 6.0;
  hub.initial_infected = 1.0;
  fig.series.push_back(
      {"hub-RL", epidemic::HubModel(hub).closed_form(grid)});
  return fig;
}

FigureData fig2_host_analytical() {
  // β₁ = 0.8, β₂ = 0.01, deployment q ∈ {0, 5, 50, 80, 100}%,
  // t in [0, 1000] (Figure 2).
  const std::vector<double> grid = uniform_grid(0.0, 1000.0, 501);
  constexpr double kN = 1000.0;
  FigureData fig{"fig2",
                 "Analytical model for rate limiting at individual hosts",
                 "time",
                 "fraction of nodes infected",
                 {}};
  fig.series.push_back({"no-RL", leaf_curve(kN, 0.0, grid)});
  fig.series.push_back({"5%-hosts", leaf_curve(kN, 0.05, grid)});
  fig.series.push_back({"50%-hosts", leaf_curve(kN, 0.50, grid)});
  fig.series.push_back({"80%-hosts", leaf_curve(kN, 0.80, grid)});
  fig.series.push_back({"100%-hosts", leaf_curve(kN, 1.00, grid)});
  return fig;
}

namespace {

epidemic::EdgeRouterParams edge_params(epidemic::WormClass worm,
                                       bool limited) {
  epidemic::EdgeRouterParams p;
  p.num_subnets = 50.0;
  p.hosts_per_subnet = 20.0;
  p.worm = worm;
  p.intra_rate = kBeta;
  p.local_preference_gain = 4.0;
  p.inter_rate = kBeta;
  p.limited_inter_rate = kBeta2;
  p.rate_limited = limited;
  p.initial_infected_subnets = 1.0;
  p.initial_infected_hosts = 1.0;
  return p;
}

}  // namespace

FigureData fig3a_edge_across_subnets() {
  // Figure 3(a): fraction of subnets infected, t in [0, 300].
  const std::vector<double> grid = uniform_grid(0.0, 300.0, 301);
  using epidemic::EdgeRouterModel;
  using epidemic::WormClass;
  FigureData fig{"fig3a",
                 "Edge-router RL, spread of worm across subnets",
                 "time",
                 "fraction of subnets infected",
                 {}};
  fig.series.push_back(
      {"no-RL-localpref",
       EdgeRouterModel(edge_params(WormClass::kLocalPreferential, false))
           .across_subnet_curve(grid)});
  fig.series.push_back(
      {"localpref-RL",
       EdgeRouterModel(edge_params(WormClass::kLocalPreferential, true))
           .across_subnet_curve(grid)});
  fig.series.push_back(
      {"random-RL",
       EdgeRouterModel(edge_params(WormClass::kRandom, true))
           .across_subnet_curve(grid)});
  return fig;
}

FigureData fig3b_edge_within_subnet() {
  // Figure 3(b): fraction of hosts within a subnet infected.
  const std::vector<double> grid = uniform_grid(0.0, 300.0, 301);
  using epidemic::EdgeRouterModel;
  using epidemic::WormClass;
  FigureData fig{"fig3b",
                 "Edge-router RL, spread of worm within a subnet",
                 "time",
                 "fraction of nodes within subnet infected",
                 {}};
  fig.series.push_back(
      {"no-RL-localpref",
       EdgeRouterModel(edge_params(WormClass::kLocalPreferential, false))
           .within_subnet_curve(grid)});
  fig.series.push_back(
      {"localpref-RL",
       EdgeRouterModel(edge_params(WormClass::kLocalPreferential, true))
           .within_subnet_curve(grid)});
  fig.series.push_back(
      {"random-RL",
       EdgeRouterModel(edge_params(WormClass::kRandom, true))
           .within_subnet_curve(grid)});
  return fig;
}

FigureData fig7a_immunization_analytical() {
  // Delayed immunization, no rate limiting: β = 0.8, μ = 0.1,
  // immunization at 20/50/80% infection; t in [0, 80] (Figure 7(a)).
  const std::vector<double> grid = uniform_grid(0.0, 80.0, 401);
  constexpr double kN = 1000.0;
  constexpr double kMu = 0.1;

  FigureData fig{"fig7a",
                 "Analytical model for delayed immunization",
                 "time",
                 "fraction of nodes infected",
                 {}};
  {
    epidemic::SiParams p;
    p.population = kN;
    p.contact_rate = kBeta;
    p.initial_infected = 1.0;
    fig.series.push_back(
        {"no-immunization", epidemic::HomogeneousSi(p).closed_form(grid)});
  }
  for (double level : {0.2, 0.5, 0.8}) {
    epidemic::DelayedImmunizationParams p;
    p.population = kN;
    p.contact_rate = kBeta;
    p.immunization_rate = kMu;
    p.delay = epidemic::DelayedImmunizationModel::delay_for_infection_level(
        kN, kBeta, 1.0, level);
    p.initial_infected = 1.0;
    const std::string label =
        "immunize-at-" + std::to_string(static_cast<int>(level * 100)) + "%";
    fig.series.push_back(
        {label, epidemic::DelayedImmunizationModel(p).closed_form(grid)});
  }
  return fig;
}

FigureData fig7b_immunization_ratelimited_analytical() {
  // Delayed immunization with backbone rate limiting: γ = β(1-α),
  // immunization starting at ticks 6/8/10 — the ticks at which the
  // *unlimited* epidemic reaches 20/50/80% (Section 6.2's convention);
  // t in [0, 50] (Figure 7(b)).
  const std::vector<double> grid = uniform_grid(0.0, 50.0, 251);
  constexpr double kN = 1000.0;
  constexpr double kMu = 0.1;
  constexpr double kCoverage = 0.5;

  FigureData fig{"fig7b",
                 "Delayed immunization with backbone rate limiting",
                 "time",
                 "fraction of nodes infected",
                 {}};
  {
    // No immunization, but rate limited.
    epidemic::SiParams p;
    p.population = kN;
    p.contact_rate = kBeta * (1.0 - kCoverage);
    p.initial_infected = 1.0;
    fig.series.push_back(
        {"no-immunization", epidemic::HomogeneousSi(p).closed_form(grid)});
  }
  for (double tick : {6.0, 8.0, 10.0}) {
    epidemic::BackboneImmunizationParams p;
    p.population = kN;
    p.contact_rate = kBeta;
    p.path_coverage = kCoverage;
    p.immunization_rate = kMu;
    p.delay = tick;
    p.initial_infected = 1.0;
    const std::string label =
        "immunize-at-tick-" + std::to_string(static_cast<int>(tick));
    fig.series.push_back(
        {label,
         epidemic::BackboneImmunizationModel(p).closed_form(grid)});
  }
  return fig;
}

FigureData fig10_trace_rates_analytical() {
  // Figure 10: the trace-derived rates fed back into the hub
  // approximation (Equations 4-5) of a single 1128-host subnet. Time
  // unit = one 5-second window; log-scale horizon to 10^4.
  //
  //   * no-RL: homogeneous β = 0.8.
  //   * per-host RL: every host filtered, β₂ = 0.05 (the per-host
  //     limit leaves each of 1128 hosts its full slot, so the
  //     aggregate stays comparatively high — per-host limits are a
  //     poor way to protect the outside, Section 7).
  //   * edge aggregate RL: hub model with per-link rate γ = 0.1 and an
  //     aggregate (hub) allowance β_hub = ratio · γ; γ:β of 1:2
  //     represents the DNS-based scheme (lower aggregate), 1:6 the
  //     plain IP throttle.
  std::vector<double> grid;
  for (double t = 0.0; t <= 4.0; t += 0.02)
    grid.push_back(std::pow(10.0, t));
  grid.insert(grid.begin(), 0.0);
  constexpr double kN = 1128.0;

  FigureData fig{"fig10",
                 "Rate limiting at the rates proposed by the trace study",
                 "time (5s windows, log scale)",
                 "fraction of nodes infected",
                 {}};
  {
    epidemic::SiParams p;
    p.population = kN;
    p.contact_rate = kBeta;
    p.initial_infected = 1.0;
    fig.series.push_back(
        {"no-RL", epidemic::HomogeneousSi(p).closed_form(grid)});
  }
  {
    epidemic::HubModelParams p;
    p.population = kN;
    p.link_rate = 0.1;
    p.hub_rate = 0.2;  // 1:2 — DNS-based scheme
    p.initial_infected = 1.0;
    fig.series.push_back(
        {"edge-RL-1:2-dns", epidemic::HubModel(p).closed_form(grid)});
  }
  {
    epidemic::HubModelParams p;
    p.population = kN;
    p.link_rate = 0.1;
    p.hub_rate = 0.6;  // 1:6 — IP throttling scheme
    p.initial_infected = 1.0;
    fig.series.push_back(
        {"edge-RL-1:6-ip", epidemic::HubModel(p).closed_form(grid)});
  }
  {
    epidemic::PartialDeploymentParams p;
    p.population = kN;
    p.deployed_fraction = 1.0;
    p.unfiltered_rate = kBeta;
    p.filtered_rate = 0.05;
    p.initial_infected = 1.0;
    fig.series.push_back(
        {"host-RL",
         epidemic::PartialDeploymentModel(p).closed_form(grid)});
  }
  return fig;
}

FigureData analytical_figure(const std::string& id) {
  if (id == "fig1a") return fig1a_star_analytical();
  if (id == "fig2") return fig2_host_analytical();
  if (id == "fig3a") return fig3a_edge_across_subnets();
  if (id == "fig3b") return fig3b_edge_within_subnet();
  if (id == "fig7a") return fig7a_immunization_analytical();
  if (id == "fig7b") return fig7b_immunization_ratelimited_analytical();
  if (id == "fig10") return fig10_trace_rates_analytical();
  throw std::invalid_argument("analytical_figure: unknown figure id " + id);
}

}  // namespace dq::core
