// Declarative job descriptions for the campaign engine.
//
// A job is the unit of batching, caching, and scheduling: either one
// multi-run simulation (the simulator's TopologySpec + SimulationConfig
// + run count) or one closed-form analytical figure from the
// experiment registry.
// Every knob that can change the job's output is part of JobConfig and
// is canonically serialized, so the content hash fully identifies the
// result — equal hash ⇒ equal artifact bytes.
//
// Determinism: a simulation job's RNG substream is derived from its
// own content hash (see substream_seed), not from scheduling. Results
// are therefore bit-identical regardless of thread count, cache state,
// or the order jobs execute in — and any config edit automatically
// moves the job onto a fresh, decorrelated stream.
#pragma once

#include <cstdint>
#include <string>

#include "campaign/json.hpp"
#include "simulator/config.hpp"
#include "simulator/network.hpp"

namespace dq::campaign {

// The topology a simulation job runs on. The spec is the simulator's
// (simulator/network.hpp); it is part of the job schema, so the cache
// key covers the topology, and a job's network can be rebuilt from it
// wherever the job lands (building is deterministic in build_seed).
using sim::TopologySpec;
using sim::build_network;

struct JobConfig {
  enum class Kind : std::uint8_t { kSimulation, kAnalyticalFigure };
  Kind kind = Kind::kSimulation;

  // --- kSimulation ---
  TopologySpec topology;
  sim::SimulationConfig sim;
  /// Independent runs averaged by the job (the paper uses 10).
  std::size_t runs = 10;

  // --- kAnalyticalFigure ---
  /// Registry id understood by core::analytical_figure ("fig1a", ...).
  std::string figure_id;
};

/// Canonical JSON for a job config: every output-affecting field, in a
/// fixed key order, with shortest-round-trip numbers. This string is
/// the content-hash input AND is embedded in the artifact, so a cached
/// result is self-describing.
JsonValue job_config_to_json(const JobConfig& config);

/// FNV-1a over job_config_to_json(config).dump().
std::uint64_t job_hash(const JobConfig& config);

/// The RNG seed a simulation job actually runs with: its content hash
/// passed through a SplitMix64 finalizer. sim.seed still matters — it
/// is hashed — but only through this derivation, which is what makes
/// results independent of scheduling.
std::uint64_t substream_seed(std::uint64_t hash) noexcept;

}  // namespace dq::campaign
