// Multi-run experiment harness. Every simulated figure in the paper is
// "averaged over 10 individual runs"; this wraps that pattern.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/sink.hpp"
#include "simulator/config.hpp"
#include "simulator/network.hpp"
#include "simulator/sharded_sim.hpp"
#include "stats/hash.hpp"
#include "stats/timeseries.hpp"

namespace dq::sim {

/// Seed of run `run` in a multi-run batch over base seed `base`: a
/// mix64 substream, the same derivation the campaign engine uses for
/// its job streams. The old `base + run` arithmetic made run r of
/// base seed S bit-identical to run r−1 of base seed S+1, so
/// adjacent-seed scenarios (ablation sweeps step seeds by one) shared
/// RNG streams and under-estimated variance. The golden-ratio stride
/// inside the avalanche keeps every (base, run) pair on its own
/// stream: run_seed(S, r) == run_seed(S', r') requires a full 64-bit
/// mix64 collision, not an off-by-one.
inline std::uint64_t run_seed(std::uint64_t base, std::size_t run) {
  return mix64(mix64(base) +
               0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(run));
}

/// Pointwise averages of the per-run curves, on the integer tick grid
/// [0, max_ticks].
struct AveragedResult {
  TimeSeries active_infected;
  TimeSeries ever_infected;
  TimeSeries removed;
  /// Seed-subnet infection fraction (empty on subnet-less topologies).
  TimeSeries seed_subnet_infected;
  /// Counter-worm population (empty unless the predator is enabled).
  TimeSeries predator_infected;
  /// Mean tick at which immunization kicked in (-1 if it never did).
  double mean_immunization_start = -1.0;
  /// Quarantine report averaged pointwise over runs (all-zero defaults
  /// unless base.quarantine.enabled).
  quarantine::QuarantineReport quarantine_mean;
  /// Mean per-run quarantine packet drops (worm+predator / legit).
  double mean_quarantine_dropped = 0.0;
  double mean_legit_quarantine_dropped = 0.0;
  /// Deterministic tick-loop event counters summed over all runs. The
  /// per-phase seconds stay zero: wall clock summed across parallel
  /// runs adds up to more than elapsed time.
  PerfCounters perf_counters;
  std::size_t runs = 0;
};

/// Runs `runs` independent simulations (run r seeded with
/// run_seed(base.seed, r)), each a one-shard ShardedSimulation, and
/// averages the curves. Runs execute concurrently (the shared Network
/// is read-only) up to `max_parallelism` threads; 0 means use the
/// hardware concurrency, 1 forces serial execution. Results are
/// identical regardless of parallelism — every run's RNG stream is
/// fixed by its seed. Throws std::invalid_argument on runs == 0.
///
/// When `obs` is non-null it must have been constructed with at least
/// `runs` runs; run r records into obs->run_sink(r). Registry totals
/// and the concatenated NDJSON export are byte-identical at any
/// parallelism (commutative counters; one private ring per run).
AveragedResult run_many(const Network& net, const SimulationConfig& base,
                        std::size_t runs, std::size_t max_parallelism = 0,
                        obs::MultiRunSink* obs = nullptr);

}  // namespace dq::sim
