#include "simulator/runner.hpp"

#include <stdexcept>
#include <vector>

#include "stats/parallel.hpp"

namespace dq::sim {

AveragedResult run_many(const Network& net, const SimulationConfig& base,
                        std::size_t runs, std::size_t max_parallelism,
                        obs::MultiRunSink* obs) {
  if (runs == 0) throw std::invalid_argument("run_many: runs must be > 0");
  if (obs != nullptr && obs->runs() < runs)
    throw std::invalid_argument("run_many: obs sink sized for fewer runs");

  // Each run is fully independent (own RNG stream, own state, own
  // trace ring); the Network is only read and the metrics registry
  // takes commutative atomic updates.
  std::vector<RunResult> results(runs);
  parallel_for(runs, max_parallelism, [&](std::size_t r) {
    SimulationConfig cfg = base;
    cfg.seed = run_seed(base.seed, r);
    const obs::Sink sink = obs != nullptr ? obs->run_sink(r) : obs::Sink{};
    // Parallelism comes from running many runs at once, so each run
    // takes one shard (which also lets it carry a trace sink).
    results[r] = ShardedSimulation(net, cfg, /*num_shards=*/1, sink).run();
  });

  std::vector<TimeSeries> active, ever, removed, seed_subnet, predator;
  active.reserve(runs);
  ever.reserve(runs);
  removed.reserve(runs);
  double start_sum = 0.0;
  std::size_t start_count = 0;
  std::vector<quarantine::QuarantineReport> qreports;
  if (base.quarantine.enabled) qreports.reserve(runs);
  AveragedResult out;
  for (RunResult& result : results) {
    // Only the deterministic event counters aggregate (see runner.hpp).
    out.perf_counters.ticks += result.perf.ticks;
    out.perf_counters.packets_forwarded += result.perf.packets_forwarded;
    out.perf_counters.link_hops += result.perf.link_hops;
    out.perf_counters.queue_events += result.perf.queue_events;
    out.perf_counters.queue_releases += result.perf.queue_releases;
    if (base.quarantine.enabled) {
      qreports.push_back(result.quarantine);
      out.mean_quarantine_dropped +=
          static_cast<double>(result.quarantine_dropped_packets);
      out.mean_legit_quarantine_dropped +=
          static_cast<double>(result.legit_quarantine_dropped);
    }
    active.push_back(std::move(result.active_infected));
    ever.push_back(std::move(result.ever_infected));
    removed.push_back(std::move(result.removed));
    if (!result.seed_subnet_infected.empty())
      seed_subnet.push_back(std::move(result.seed_subnet_infected));
    if (!result.predator_infected.empty())
      predator.push_back(std::move(result.predator_infected));
    if (result.immunization_start_tick >= 0.0) {
      start_sum += result.immunization_start_tick;
      ++start_count;
    }
  }

  // Common integer tick grid across the full horizon, so early-stopping
  // runs (saturation) still contribute their final value everywhere.
  const std::size_t points = static_cast<std::size_t>(base.max_ticks) + 1;
  std::vector<double> grid(points);
  for (std::size_t i = 0; i < points; ++i) grid[i] = static_cast<double>(i);
  for (auto* series : {&active, &ever, &removed, &seed_subnet, &predator})
    for (TimeSeries& run : *series) run = run.resample(grid);

  out.active_infected = TimeSeries::average(active);
  out.ever_infected = TimeSeries::average(ever);
  out.removed = TimeSeries::average(removed);
  if (!seed_subnet.empty())
    out.seed_subnet_infected = TimeSeries::average(seed_subnet);
  if (!predator.empty())
    out.predator_infected = TimeSeries::average(predator);
  out.mean_immunization_start =
      start_count ? start_sum / static_cast<double>(start_count) : -1.0;
  if (!qreports.empty()) {
    out.quarantine_mean = quarantine::average_quarantine_reports(qreports);
    out.mean_quarantine_dropped /= static_cast<double>(runs);
    out.mean_legit_quarantine_dropped /= static_cast<double>(runs);
  }
  out.runs = runs;
  return out;
}

}  // namespace dq::sim
