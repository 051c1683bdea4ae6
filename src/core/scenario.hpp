// High-level public API: describe a worm-outbreak scenario once, then
// evaluate it analytically (Sections 3–6 models) and/or by packet
// simulation (Section 5.4 engine) with the same description.
//
// This is the entry point a downstream user should reach for first;
// examples/quickstart.cpp is a tour of it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "epidemic/edge_router_model.hpp"
#include "stats/timeseries.hpp"
#include "worm/target_selector.hpp"

namespace dq::core {

/// Where rate-limiting filters are deployed (the paper's Section 5
/// comparison axis).
enum class Deployment : std::uint8_t {
  kNone,
  kHostBased,   ///< a fraction of end hosts (Section 5.1)
  kEdgeRouter,  ///< all edge routers (Section 5.2)
  kBackbone,    ///< backbone routers (Section 5.3)
};

std::string to_string(Deployment d);

struct ScenarioTopology {
  enum class Kind : std::uint8_t { kStar, kPowerLaw, kSubnets, kEdgeList };
  Kind kind = Kind::kPowerLaw;
  /// Node count for star / power-law topologies.
  std::size_t nodes = 1000;
  /// Preferential-attachment links per node for power-law graphs.
  std::size_t ba_links = 2;
  /// Subnet layout (kSubnets only).
  std::size_t num_subnets = 50;
  std::size_t hosts_per_subnet = 20;
  /// Path to a whitespace edge-list file (kEdgeList only) — e.g. an
  /// Oregon RouteViews AS graph. Roles are assigned by degree rank as
  /// in Section 5.4. run_analytical still sizes its population from
  /// `nodes`; set it to the file's node count for matching scales.
  std::string edge_list_path;
};

struct ScenarioWorm {
  /// β: contact rate (scan attempts per infected node per tick).
  double contact_rate = 0.8;
  epidemic::WormClass worm_class = epidemic::WormClass::kRandom;
  /// Probability a local-preferential scan stays in-subnet.
  double local_bias = 0.8;
  /// Optional explicit scan strategy for simulations (sequential,
  /// permutation, hitlist, ...); when unset, worm_class maps to
  /// kRandom / kLocalPreferential. The analytical models treat any
  /// strategy through its effective contact rate.
  std::optional<worm::ScanStrategy> scan_strategy;
  std::uint32_t hitlist_size = 100;
  std::uint32_t initial_infected = 1;
};

struct ScenarioDefense {
  Deployment deployment = Deployment::kNone;
  /// Fraction of hosts carrying a host filter. In simulations this
  /// composes with any deployment (Section 8 recommends edge + host
  /// together); analytically it is used by kHostBased.
  double host_fraction = 0.0;
  /// β₂: the contact rate a host filter allows.
  double filtered_rate = 0.01;
  /// Per-tick packet capacity of rate-limited links (simulation).
  double link_capacity = 10.0;
  /// α: fraction of IP-to-IP paths the backbone filters cover
  /// (analytical kBackbone model).
  double backbone_coverage = 0.9;
  /// r: residual allowed worm rate through backbone filters.
  double backbone_residual_rate = 0.0;
  /// Optional per-tick forwarding cap on a star topology's hub node
  /// (Section 4's hub-node rate β, simulation only).
  std::optional<std::uint32_t> hub_forward_cap;

  /// Dynamic immunization (Section 6): start when this fraction is
  /// infected, or at a fixed tick if immunization_start_tick is set.
  std::optional<double> immunization_start_fraction;
  std::optional<double> immunization_start_tick;
  double immunization_rate = 0.1;

  bool immunization_enabled() const noexcept {
    return immunization_start_fraction.has_value() ||
           immunization_start_tick.has_value();
  }
};

struct Scenario {
  ScenarioTopology topology;
  ScenarioWorm worm;
  ScenarioDefense defense;
  double horizon = 100.0;     ///< ticks to evaluate
  std::size_t grid_points = 201;
  std::uint64_t seed = 42;
};

/// Unified result of either evaluation path.
struct PropagationResult {
  TimeSeries active_infected;  ///< infected & not yet removed, fraction
  TimeSeries ever_infected;    ///< cumulative, fraction (== active when
                               ///< immunization is off)
  /// Time to reach 50% ever-infected; negative when never reached.
  double time_to_half() const noexcept {
    return ever_infected.time_to_reach(0.5);
  }
  double final_ever_infected() const {
    return ever_infected.back_value();
  }
};

/// Evaluates the scenario with the closed-form / ODE models.
PropagationResult run_analytical(const Scenario& scenario);

/// Evaluates the scenario with the packet simulator, averaging `runs`
/// independent runs (the paper uses 10).
PropagationResult run_simulation(const Scenario& scenario,
                                 std::size_t runs = 10);

}  // namespace dq::core
