// The experiment registry: Section 5.4's simulation setup (β, β₂, the
// base config and the paper's topologies), which core's simulated
// figures and the campaign catalogue (campaign/scenarios.cpp) share,
// and one function per figure the catalogue does not declare. Bench
// binaries, dqctl, tests and EXPERIMENTS.md all consume these or the
// catalogue, so the configuration of each reproduction lives in
// exactly one place.
//
// Paper-to-code index (see DESIGN.md §4 for the full table):
//   Fig. 1(a)/(b) — star-graph rate limiting, analytical + simulated
//   Fig. 2        — host-based deployment sweep, analytical
//   Fig. 3(a)/(b) — edge-router limiting across/within subnets
//   Fig. 4        — power-law simulation: host vs edge vs backbone
//   Fig. 5        — edge limiting vs local-preferential worms (sim)
//   Fig. 6        — local-preferential: host vs backbone (sim)
//   Fig. 7(a)/(b) — delayed immunization, analytical
//   Fig. 8(a)/(b) — delayed immunization, simulated (ever-infected)
//   Fig. 9(a)/(b) — trace contact-rate CDFs
//   Fig. 10       — practical rate limits fed back into the models
//   Fig. 11       — dynamic quarantine vs static defenses (extension)
//   (Figs. 1(b) and 4 are the catalogue's fig01 and fig04 scenarios.)
#pragma once

#include <cstdint>
#include <string>

#include "core/figure.hpp"
#include "quarantine/engine.hpp"
#include "simulator/config.hpp"
#include "simulator/network.hpp"
#include "trace/department.hpp"

namespace dq::core {

/// Knobs shared by the simulated experiments. `quick()` shrinks runs
/// and trace duration for use inside unit tests.
struct ExperimentOptions {
  std::size_t sim_runs = 10;        ///< the paper averages 10 runs
  std::uint64_t seed = 42;
  double trace_duration = 4.0 * 3600.0;  ///< synthetic-trace length (s)

  static ExperimentOptions quick() {
    ExperimentOptions o;
    o.sim_runs = 3;
    o.trace_duration = 600.0;
    return o;
  }
};

// --- Section 5.4's simulation setup ---
/// β: the Code-Red-class contact rate (scans per infected host per
/// tick) of every experiment.
inline constexpr double kBeta = 0.8;
/// β₂: the contact rate a host filter allows.
inline constexpr double kBeta2 = 0.01;

/// β and β₂, one initial infection, `max_ticks` and options.seed.
sim::SimulationConfig paper_sim_config(const ExperimentOptions& options,
                                       double max_ticks);

/// The 200-node star of Section 4; its hub is the one backbone node.
sim::TopologySpec star_200();

/// The 1000-node BRITE-like power-law graph of Section 5.4, with the
/// top 5% / next 10% of nodes by degree designated backbone / edge
/// routers.
sim::TopologySpec powerlaw_1000(const ExperimentOptions& options);

/// The subnetted topology of the local-preferential experiments: 25
/// subnets x 40 hosts behind gateways (the edge routers).
sim::TopologySpec subnets_25x40(const ExperimentOptions& options);

/// Closed-form figures by registry id — "fig1a", "fig2", "fig3a",
/// "fig3b", "fig7a", "fig7b", "fig10". The campaign engine's entry
/// point for analytical jobs. Throws std::invalid_argument on an
/// unknown id.
FigureData analytical_figure(const std::string& id);

// --- Section 4: star topology ---
FigureData fig1a_star_analytical();

// --- Section 5.1: host-based deployment ---
FigureData fig2_host_analytical();

// --- Section 5.2: edge routers, random vs local-preferential ---
FigureData fig3a_edge_across_subnets();
FigureData fig3b_edge_within_subnet();

// --- Section 5.4: subnet simulations ---
FigureData fig5_edge_localpref_simulated(const ExperimentOptions& options);
FigureData fig6_localpref_backbone_simulated(
    const ExperimentOptions& options);

// --- Section 6: dynamic immunization ---
FigureData fig7a_immunization_analytical();
FigureData fig7b_immunization_ratelimited_analytical();
FigureData fig8a_immunization_simulated(const ExperimentOptions& options);
FigureData fig8b_immunization_ratelimited_simulated(
    const ExperimentOptions& options);

// --- Section 7: trace study ---
/// Builds the synthetic department trace used by the fig9/table
/// experiments (cached by callers as needed — generation is the
/// expensive step).
trace::Trace make_department_trace(const ExperimentOptions& options);

FigureData fig9a_normal_client_cdf(const trace::Trace& trace);
FigureData fig9b_worm_host_cdf(const trace::Trace& trace);
FigureData fig10_trace_rates_analytical();

// --- Dynamic quarantine (the paper's namesake defense) ---
/// Dynamic quarantine vs the static baselines on the power-law
/// topology, under a sparse address space (most scans miss — the
/// failed-connection signal the detectors key on) with legitimate
/// background traffic so collateral damage is measurable. Series:
/// no-defense, 100% host rate limiting, blacklisting, and dynamic
/// quarantine. When `cost` is non-null it receives the quarantine
/// run's averaged report (detection latency, FP rate, benign
/// quarantine ticks).
FigureData fig11_dynamic_quarantine_simulated(
    const ExperimentOptions& options,
    quarantine::QuarantineReport* cost = nullptr);

/// The quantitative Section 7 findings (category census, 99.9% rate
/// limits under each refinement, window-size study, worm peak scan
/// rates, throttle replays) as a text report.
std::string trace_study_report(const trace::Trace& trace);

}  // namespace dq::core
