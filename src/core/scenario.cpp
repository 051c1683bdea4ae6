#include "core/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "epidemic/backbone_model.hpp"
#include "epidemic/immunization.hpp"
#include "epidemic/partial_deployment.hpp"
#include "epidemic/si_model.hpp"
#include "graph/builders.hpp"
#include "graph/io.hpp"
#include "simulator/runner.hpp"

namespace dq::core {

std::string to_string(Deployment d) {
  switch (d) {
    case Deployment::kNone: return "none";
    case Deployment::kHostBased: return "host-based";
    case Deployment::kEdgeRouter: return "edge-router";
    case Deployment::kBackbone: return "backbone";
  }
  return "unknown";
}

namespace {

double scenario_population(const Scenario& s) {
  if (s.topology.kind == ScenarioTopology::Kind::kSubnets)
    return static_cast<double>(s.topology.num_subnets *
                               (s.topology.hosts_per_subnet + 1));
  return static_cast<double>(s.topology.nodes);
}

/// The effective logistic growth rate of the rate-limited worm under
/// the scenario's defense — the unifying quantity of Sections 4–5.
double effective_growth_rate(const Scenario& s) {
  const double beta = s.worm.contact_rate;
  switch (s.defense.deployment) {
    case Deployment::kNone:
      return beta;
    case Deployment::kHostBased: {
      const double q = s.defense.host_fraction;
      return q * s.defense.filtered_rate + (1.0 - q) * beta;
    }
    case Deployment::kEdgeRouter: {
      // Edge filtering throttles only the cross-subnet component; for
      // the homogeneous summary rate we use the across-subnet rate.
      epidemic::EdgeRouterParams p;
      p.worm = s.worm.worm_class;
      p.intra_rate = beta;
      p.inter_rate = beta;
      p.limited_inter_rate = s.defense.filtered_rate;
      p.rate_limited = true;
      return epidemic::EdgeRouterModel(p).inter_growth_rate();
    }
    case Deployment::kBackbone:
      return beta * (1.0 - s.defense.backbone_coverage);
  }
  throw std::logic_error("effective_growth_rate: bad deployment");
}

double immunization_delay(const Scenario& s, double growth_rate) {
  if (s.defense.immunization_start_tick)
    return *s.defense.immunization_start_tick;
  // Delay at which the *unimmunized* epidemic (under the active rate
  // limiting) reaches the trigger fraction — the paper's "immunization
  // at 20% infection" convention (Section 6.2 picks the tick from the
  // corresponding no-rate-limiting run; callers wanting that exact
  // convention pass start_tick).
  return epidemic::DelayedImmunizationModel::delay_for_infection_level(
      scenario_population(s), growth_rate,
      static_cast<double>(s.worm.initial_infected),
      *s.defense.immunization_start_fraction);
}

/// The scenario's network: built from a sim::TopologySpec for the
/// paper's families, loaded for an edge list (a file path is not a
/// reconstructible spec).
sim::Network scenario_network(const Scenario& s) {
  const ScenarioTopology& topo = s.topology;
  sim::TopologySpec spec;
  switch (topo.kind) {
    case ScenarioTopology::Kind::kStar:
      spec.kind = sim::TopologySpec::Kind::kStar;
      // Exactly the hub (highest degree node) is "backbone".
      spec.backbone_fraction = 1.0 / static_cast<double>(topo.nodes);
      spec.edge_fraction = 0.0;
      break;
    case ScenarioTopology::Kind::kPowerLaw:
      spec.kind = sim::TopologySpec::Kind::kPowerLaw;
      break;
    case ScenarioTopology::Kind::kSubnets:
      spec.kind = sim::TopologySpec::Kind::kSubnets;
      break;
    case ScenarioTopology::Kind::kEdgeList: {
      graph::Graph g = graph::load_edge_list(topo.edge_list_path);
      graph::ensure_connected(g);
      return sim::Network(std::move(g));
    }
  }
  spec.nodes = topo.nodes;
  spec.ba_links = topo.ba_links;
  spec.num_subnets = topo.num_subnets;
  spec.hosts_per_subnet = topo.hosts_per_subnet;
  spec.build_seed = s.seed ^ 0x9e3779b97f4a7c15ULL;
  return sim::build_network(spec);
}

}  // namespace

PropagationResult run_analytical(const Scenario& scenario) {
  const double n = scenario_population(scenario);
  const double i0 = static_cast<double>(scenario.worm.initial_infected);
  const std::vector<double> grid =
      uniform_grid(0.0, scenario.horizon, scenario.grid_points);

  PropagationResult out;
  if (!scenario.defense.immunization_enabled()) {
    TimeSeries curve;
    if (scenario.defense.deployment == Deployment::kBackbone &&
        scenario.defense.backbone_residual_rate > 0.0) {
      epidemic::BackboneParams p;
      p.population = n;
      p.contact_rate = scenario.worm.contact_rate;
      p.path_coverage = scenario.defense.backbone_coverage;
      p.residual_rate = scenario.defense.backbone_residual_rate;
      p.initial_infected = i0;
      curve = epidemic::BackboneModel(p).integrate(grid);
    } else {
      // All other cases are logistic with the effective growth rate.
      epidemic::SiParams p;
      p.population = n;
      p.contact_rate = effective_growth_rate(scenario);
      p.initial_infected = i0;
      curve = epidemic::HomogeneousSi(p).closed_form(grid);
    }
    out.active_infected = curve;
    out.ever_infected = std::move(curve);
    return out;
  }

  // Immunization: reuse the backbone+immunization machinery with an
  // equivalent coverage 1 − λ/β, which reproduces any effective rate λ.
  const double lambda = effective_growth_rate(scenario);
  epidemic::BackboneImmunizationParams p;
  p.population = n;
  p.contact_rate = scenario.worm.contact_rate;
  p.path_coverage = 1.0 - lambda / scenario.worm.contact_rate;
  p.residual_rate = scenario.defense.deployment == Deployment::kBackbone
                        ? scenario.defense.backbone_residual_rate
                        : 0.0;
  p.immunization_rate = scenario.defense.immunization_rate;
  p.delay = immunization_delay(scenario, lambda);
  p.initial_infected = i0;
  const epidemic::BackboneImmunizationModel model(p);
  epidemic::ImmunizationCurves curves = model.integrate(grid);
  out.active_infected = std::move(curves.active_fraction);
  out.ever_infected = std::move(curves.ever_fraction);
  return out;
}

PropagationResult run_simulation(const Scenario& scenario,
                                 std::size_t runs) {
  const sim::Network net = scenario_network(scenario);

  sim::SimulationConfig cfg;
  cfg.worm.contact_rate = scenario.worm.contact_rate;
  cfg.worm.filtered_contact_rate = scenario.defense.filtered_rate;
  cfg.worm.selection =
      scenario.worm.scan_strategy.value_or(
          scenario.worm.worm_class ==
                  epidemic::WormClass::kLocalPreferential
              ? sim::TargetSelection::kLocalPreferential
              : sim::TargetSelection::kRandom);
  cfg.worm.local_bias = scenario.worm.local_bias;
  cfg.worm.hitlist_size = scenario.worm.hitlist_size;
  cfg.worm.initial_infected = scenario.worm.initial_infected;

  // Host filters compose with any link-level deployment (the paper's
  // Section 8 recommends edge + host together).
  cfg.deployment.host_filter_fraction = scenario.defense.host_fraction;
  switch (scenario.defense.deployment) {
    case Deployment::kNone:
    case Deployment::kHostBased:
      break;
    case Deployment::kEdgeRouter:
      cfg.deployment.edge_router_limited = true;
      break;
    case Deployment::kBackbone:
      cfg.deployment.backbone_limited = true;
      break;
  }
  cfg.deployment.base_link_capacity = scenario.defense.link_capacity;
  if (scenario.defense.hub_forward_cap &&
      scenario.topology.kind == ScenarioTopology::Kind::kStar) {
    // Node 0 is the star's hub by construction.
    cfg.deployment.node_forward_cap = {0u, *scenario.defense.hub_forward_cap};
  }

  if (scenario.defense.immunization_enabled()) {
    cfg.immunization.enabled = true;
    cfg.immunization.rate = scenario.defense.immunization_rate;
    if (scenario.defense.immunization_start_tick)
      cfg.immunization.start_at_tick = scenario.defense.immunization_start_tick;
    else
      cfg.immunization.start_at_infected_fraction =
          *scenario.defense.immunization_start_fraction;
  }

  cfg.max_ticks = scenario.horizon;
  cfg.seed = scenario.seed;

  sim::AveragedResult averaged = sim::run_many(net, cfg, runs);
  PropagationResult out;
  out.active_infected = std::move(averaged.active_infected);
  out.ever_infected = std::move(averaged.ever_infected);
  return out;
}

}  // namespace dq::core
