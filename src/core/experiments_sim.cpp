// Section 5.4's simulation setup and the simulated figures core
// defines: 5, 6, 8(a), 8(b) and 11. Figs. 1(b) and 4 are the campaign
// catalogue's fig01 and fig04 scenarios, built on the same setup.
#include <algorithm>
#include <string>
#include <utility>

#include "core/experiments.hpp"
#include "simulator/runner.hpp"

namespace dq::core {

constexpr double kMu = 0.1;  // μ, the immunization rate of Fig. 8

sim::SimulationConfig paper_sim_config(const ExperimentOptions& options,
                                       double max_ticks) {
  sim::SimulationConfig cfg;
  cfg.worm.contact_rate = kBeta;
  cfg.worm.filtered_contact_rate = kBeta2;
  cfg.worm.initial_infected = 1;
  cfg.max_ticks = max_ticks;
  cfg.seed = options.seed;
  return cfg;
}

sim::TopologySpec star_200() {
  sim::TopologySpec t;
  t.kind = sim::TopologySpec::Kind::kStar;
  t.nodes = 200;
  t.backbone_fraction = 1.0 / 200.0;  // the hub is the backbone
  t.edge_fraction = 0.0;
  return t;
}

sim::TopologySpec powerlaw_1000(const ExperimentOptions& options) {
  sim::TopologySpec t;
  t.kind = sim::TopologySpec::Kind::kPowerLaw;
  t.nodes = 1000;
  t.ba_links = 2;
  t.build_seed = options.seed ^ 0x517cc1b727220a95ULL;
  return t;
}

sim::TopologySpec subnets_25x40(const ExperimentOptions& options) {
  sim::TopologySpec t;
  t.kind = sim::TopologySpec::Kind::kSubnets;
  t.num_subnets = 25;
  t.hosts_per_subnet = 40;
  t.build_seed = options.seed ^ 0x2545f4914f6cdd1dULL;
  return t;
}

FigureData fig11_dynamic_quarantine_simulated(
    const ExperimentOptions& options, quarantine::QuarantineReport* cost) {
  // The quarantine showdown runs in a *sparse* address space: 90% of
  // scans hit unused addresses (hit_probability 0.1), which is both
  // realistic for Internet worms and the failure signal the
  // per-host detectors key on. All four series share that worm and a
  // 0.2 packets/node/tick legitimate background load, so containment
  // and collateral damage are measured on equal footing.
  const sim::Network net = sim::build_network(powerlaw_1000(options));
  FigureData fig{"fig11",
                 "Dynamic quarantine vs static defenses, power-law "
                 "1000-node topology, sparse address space (simulation)",
                 "time (ticks)",
                 "fraction of nodes ever infected",
                 {}};

  const auto sparse_base = [&] {
    sim::SimulationConfig cfg = paper_sim_config(options, 100.0);
    cfg.worm.hit_probability = 0.1;
    cfg.worm.initial_infected = 5;
    cfg.legit.rate_per_node = 0.2;
    return cfg;
  };
  auto run = [&](const sim::SimulationConfig& cfg) {
    return sim::run_many(net, cfg, options.sim_runs);
  };

  fig.series.push_back({"no-defense", run(sparse_base()).ever_infected});
  {
    // The strongest static deployment of Section 5.1: every end host
    // permanently throttled to beta2.
    sim::SimulationConfig cfg = sparse_base();
    cfg.deployment.host_filter_fraction = 1.0;
    fig.series.push_back({"100%-host-RL", run(cfg).ever_infected});
  }
  {
    // Moore et al.'s address blacklisting with a 5-tick identification
    // delay, filtering at every link.
    sim::SimulationConfig cfg = sparse_base();
    cfg.response.kind = sim::ResponseConfig::Kind::kBlacklist;
    cfg.response.reaction_time = 5.0;
    cfg.response.filters_everywhere = true;
    fig.series.push_back({"blacklist", run(cfg).ever_infected});
  }
  {
    // Dynamic quarantine with the default detectors; a first offense
    // costs 100 ticks of isolation, a repeat offense 400.
    sim::SimulationConfig cfg = sparse_base();
    cfg.quarantine.enabled = true;
    cfg.quarantine.policy.base_period = 100.0;
    sim::AveragedResult avg = run(cfg);
    if (cost) *cost = avg.quarantine_mean;
    fig.series.push_back({"dynamic-quarantine",
                          std::move(avg.ever_infected)});
  }
  return fig;
}

FigureData fig5_edge_localpref_simulated(const ExperimentOptions& options) {
  // Edge-router rate limiting within subnets: random vs
  // local-preferential worms (Figure 5). The local-preferential worm is
  // barely slowed; the random worm sees a ~50% slowdown.
  const sim::Network net = sim::build_network(subnets_25x40(options));
  FigureData fig{"fig5",
                 "Edge-router rate limiting for random and "
                 "local-preferential worms (simulation)",
                 "time (ticks)",
                 "fraction of nodes infected",
                 {}};

  auto run = [&](sim::TargetSelection selection, bool limited) {
    sim::SimulationConfig cfg = paper_sim_config(options, 25.0);
    cfg.worm.selection = selection;
    cfg.worm.local_bias = 0.8;
    if (limited) {
      // Edge filters: a flat per-link budget at every gateway-incident
      // link (the weighted-share rule of the Internet-scale Figure 4
      // run would starve a single enterprise's uplinks entirely).
      cfg.deployment.edge_router_limited = true;
      cfg.deployment.weight_by_routing_load = false;
      cfg.deployment.base_link_capacity = 2.0;
    }
    // Figure 5's metric is the spread *within* a subnet — edge filters
    // sit at the gateway and cannot touch intra-LAN traffic.
    return sim::run_many(net, cfg, options.sim_runs).seed_subnet_infected;
  };

  fig.series.push_back(
      {"no-RL-random", run(sim::TargetSelection::kRandom, false)});
  fig.series.push_back(
      {"edge-RL-random", run(sim::TargetSelection::kRandom, true)});
  fig.series.push_back(
      {"no-RL-localpref",
       run(sim::TargetSelection::kLocalPreferential, false)});
  fig.series.push_back(
      {"edge-RL-localpref",
       run(sim::TargetSelection::kLocalPreferential, true)});
  return fig;
}

FigureData fig6_localpref_backbone_simulated(
    const ExperimentOptions& options) {
  // Local-preferential worm: host filters at 5% / 30% do almost
  // nothing; backbone rate limiting is substantially more effective
  // (Figure 6).
  const sim::Network net = sim::build_network(subnets_25x40(options));
  FigureData fig{"fig6",
                 "Host vs backbone rate limiting for local-preferential "
                 "worms (simulation)",
                 "time (ticks)",
                 "fraction of nodes infected",
                 {}};

  auto run = [&](double host_fraction, bool backbone) {
    sim::SimulationConfig cfg = paper_sim_config(options, 50.0);
    cfg.worm.selection = sim::TargetSelection::kLocalPreferential;
    cfg.worm.local_bias = 0.8;
    cfg.deployment.host_filter_fraction = host_fraction;
    if (backbone) {
      // Backbone routers pass almost no worm-suspicious traffic: the
      // analytical counterpart (Equation 6) scales the allowed rate by
      // N/2^32, so covered paths leak only a trickle.
      cfg.deployment.backbone_limited = true;
      cfg.deployment.weight_by_routing_load = false;
      cfg.deployment.base_link_capacity = 0.05;
      cfg.deployment.min_link_capacity = 0.05;
    }
    return sim::run_many(net, cfg, options.sim_runs).ever_infected;
  };

  {
    // Reference line: random worm, no rate limiting (the paper's
    // "No RL random propagation").
    sim::SimulationConfig cfg = paper_sim_config(options, 50.0);
    fig.series.push_back(
        {"no-RL-random",
         sim::run_many(net, cfg, options.sim_runs).ever_infected});
  }
  // Extra baseline beyond the paper: the local-preferential worm with
  // no defense, so the host-RL lines compare against their own worm.
  fig.series.push_back({"no-RL-localpref", run(0.0, false)});
  fig.series.push_back({"5%-host-RL", run(0.05, false)});
  fig.series.push_back({"30%-host-RL", run(0.30, false)});
  fig.series.push_back({"backbone-RL", run(0.0, true)});
  return fig;
}

FigureData fig8a_immunization_simulated(const ExperimentOptions& options) {
  // Simulated delayed immunization (no rate limiting): total fraction
  // ever infected when patching starts at 20/50/80% infection
  // (Figure 8(a); the paper reports ~80/90/98% final totals).
  const sim::Network net = sim::build_network(powerlaw_1000(options));
  FigureData fig{"fig8a",
                 "Simulated delayed immunization (total ever infected)",
                 "time (ticks)",
                 "fraction of nodes ever infected",
                 {}};

  auto run = [&](std::optional<double> level) {
    sim::SimulationConfig cfg = paper_sim_config(options, 50.0);
    if (level) {
      cfg.immunization.enabled = true;
      cfg.immunization.rate = kMu;
      cfg.immunization.start_at_infected_fraction = *level;
    }
    return sim::run_many(net, cfg, options.sim_runs).ever_infected;
  };

  fig.series.push_back({"no-immunization", run(std::nullopt)});
  fig.series.push_back({"immunize-at-20%", run(0.2)});
  fig.series.push_back({"immunize-at-50%", run(0.5)});
  fig.series.push_back({"immunize-at-80%", run(0.8)});
  return fig;
}

FigureData fig8b_immunization_ratelimited_simulated(
    const ExperimentOptions& options) {
  // Same, with backbone rate limiting; immunization starts at the
  // fixed ticks at which the *unthrottled* epidemic reached 20/50/80%
  // infection — the paper's Section 6.2 convention ("the timeticks
  // chosen ... are the timeticks at which immunization started in our
  // analytical model for delayed immunization without rate limiting").
  // We read those ticks off our own simulated no-RL epidemic so the
  // convention is self-consistent with this simulator's timeline.
  // Figure 8(b): the 20%-tick case ends ~10% below Figure 8(a)'s
  // matching case because rate limiting holds the infection lower
  // while patching catches up.
  const sim::Network net = sim::build_network(powerlaw_1000(options));
  FigureData fig{"fig8b",
                 "Simulated delayed immunization with backbone rate "
                 "limiting (total ever infected)",
                 "time (ticks)",
                 "fraction of nodes ever infected",
                 {}};

  // Reference epidemic (no RL, no immunization) to place the triggers.
  const TimeSeries reference =
      sim::run_many(net, paper_sim_config(options, 50.0), options.sim_runs)
          .ever_infected;

  auto run = [&](std::optional<double> tick) {
    sim::SimulationConfig cfg = paper_sim_config(options, 50.0);
    // Section 6.2 pairs immunization with a *moderate* backbone
    // deployment: its analytical twin (Figure 7(b)) uses γ = β(1−α)
    // with α ≈ 0.5, so the throttled epidemic still saturates within
    // the horizon. A flat per-link budget reproduces that regime;
    // Figure 4's weighted-share variant would stall the worm before
    // the immunization ticks even arrive.
    cfg.deployment.backbone_limited = true;
    cfg.deployment.weight_by_routing_load = false;
    cfg.deployment.base_link_capacity = 4.0;
    cfg.deployment.min_link_capacity = 4.0;
    if (tick) {
      cfg.immunization.enabled = true;
      cfg.immunization.rate = kMu;
      cfg.immunization.start_at_tick = *tick;
    }
    return sim::run_many(net, cfg, options.sim_runs).ever_infected;
  };

  fig.series.push_back({"no-immunization", run(std::nullopt)});
  for (double level : {0.2, 0.5, 0.8}) {
    const double tick = std::max(1.0, reference.time_to_reach(level));
    const std::string label =
        "immunize-at-t(" + std::to_string(static_cast<int>(level * 100)) +
        "%)=" + std::to_string(static_cast<int>(tick + 0.5));
    fig.series.push_back({label, run(tick)});
  }
  return fig;
}

}  // namespace dq::core
