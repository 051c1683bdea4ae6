// JSON (de)serialization of simulation results — the payloads of
// campaign cache artifacts and of the golden-trajectory fixtures.
//
// Only deterministic fields are serialized: PerfCounters' event
// counters round-trip (they are fixed by the RNG stream), but its
// wall-clock seconds do not — timing belongs in the run manifest, and
// including it would break the byte-identity guarantee artifacts are
// hashed under.
#pragma once

#include "campaign/json.hpp"
#include "core/figure.hpp"
#include "simulator/runner.hpp"

namespace dq::campaign {

JsonValue timeseries_to_json(const TimeSeries& series);
TimeSeries timeseries_from_json(const JsonValue& v);

JsonValue perf_counters_to_json(const sim::PerfCounters& perf);
sim::PerfCounters perf_counters_from_json(const JsonValue& v);

/// Averaged multi-run result — a campaign simulation job's payload.
JsonValue averaged_result_to_json(const sim::AveragedResult& result);
sim::AveragedResult averaged_result_from_json(const JsonValue& v);

/// Single-run trajectory — the golden-fixture payload. Covers every
/// deterministic RunResult field so a behavioural change anywhere in
/// the tick loop shows up as a fixture diff.
JsonValue run_result_to_json(const sim::RunResult& result);

JsonValue figure_to_json(const core::FigureData& figure);
core::FigureData figure_from_json(const JsonValue& v);

}  // namespace dq::campaign
