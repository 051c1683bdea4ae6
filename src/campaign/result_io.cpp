#include "campaign/result_io.hpp"

#include "quarantine/snapshot.hpp"

namespace dq::campaign {

JsonValue timeseries_to_json(const TimeSeries& series) {
  JsonValue t = JsonValue::array();
  JsonValue v = JsonValue::array();
  for (std::size_t i = 0; i < series.size(); ++i) {
    t.push_back(JsonValue::number(series.time_at(i)));
    v.push_back(JsonValue::number(series.value_at(i)));
  }
  JsonValue o = JsonValue::object();
  o.set("t", std::move(t));
  o.set("v", std::move(v));
  return o;
}

TimeSeries timeseries_from_json(const JsonValue& v) {
  const auto& times = v.at("t").items();
  const auto& values = v.at("v").items();
  if (times.size() != values.size())
    throw std::invalid_argument("timeseries JSON: t/v length mismatch");
  TimeSeries out;
  for (std::size_t i = 0; i < times.size(); ++i)
    out.push(times[i].as_number(), values[i].as_number());
  return out;
}

JsonValue perf_counters_to_json(const sim::PerfCounters& perf) {
  JsonValue o = JsonValue::object();
  o.set("ticks", JsonValue::integer(perf.ticks));
  o.set("packets_forwarded", JsonValue::integer(perf.packets_forwarded));
  o.set("link_hops", JsonValue::integer(perf.link_hops));
  o.set("queue_events", JsonValue::integer(perf.queue_events));
  o.set("queue_releases", JsonValue::integer(perf.queue_releases));
  return o;
}

sim::PerfCounters perf_counters_from_json(const JsonValue& v) {
  sim::PerfCounters perf;
  perf.ticks = v.at("ticks").as_uint();
  perf.packets_forwarded = v.at("packets_forwarded").as_uint();
  perf.link_hops = v.at("link_hops").as_uint();
  perf.queue_events = v.at("queue_events").as_uint();
  perf.queue_releases = v.at("queue_releases").as_uint();
  return perf;
}

JsonValue averaged_result_to_json(const sim::AveragedResult& result) {
  JsonValue o = JsonValue::object();
  o.set("runs", JsonValue::integer(result.runs));
  o.set("active_infected", timeseries_to_json(result.active_infected));
  o.set("ever_infected", timeseries_to_json(result.ever_infected));
  o.set("removed", timeseries_to_json(result.removed));
  o.set("seed_subnet_infected",
        result.seed_subnet_infected.empty()
            ? JsonValue()
            : timeseries_to_json(result.seed_subnet_infected));
  o.set("predator_infected",
        result.predator_infected.empty()
            ? JsonValue()
            : timeseries_to_json(result.predator_infected));
  o.set("mean_immunization_start",
        JsonValue::number(result.mean_immunization_start));
  o.set("quarantine_mean",
        quarantine::report_to_json(result.quarantine_mean));
  o.set("mean_quarantine_dropped",
        JsonValue::number(result.mean_quarantine_dropped));
  o.set("mean_legit_quarantine_dropped",
        JsonValue::number(result.mean_legit_quarantine_dropped));
  o.set("perf", perf_counters_to_json(result.perf_counters));
  return o;
}

sim::AveragedResult averaged_result_from_json(const JsonValue& v) {
  sim::AveragedResult out;
  out.runs = v.at("runs").as_uint();
  out.active_infected = timeseries_from_json(v.at("active_infected"));
  out.ever_infected = timeseries_from_json(v.at("ever_infected"));
  out.removed = timeseries_from_json(v.at("removed"));
  if (!v.at("seed_subnet_infected").is_null())
    out.seed_subnet_infected =
        timeseries_from_json(v.at("seed_subnet_infected"));
  if (!v.at("predator_infected").is_null())
    out.predator_infected = timeseries_from_json(v.at("predator_infected"));
  out.mean_immunization_start =
      v.at("mean_immunization_start").as_number();
  out.quarantine_mean =
      quarantine::report_from_json(v.at("quarantine_mean"));
  out.mean_quarantine_dropped = v.at("mean_quarantine_dropped").as_number();
  out.mean_legit_quarantine_dropped =
      v.at("mean_legit_quarantine_dropped").as_number();
  out.perf_counters = perf_counters_from_json(v.at("perf"));
  return out;
}

JsonValue run_result_to_json(const sim::RunResult& result) {
  JsonValue o = JsonValue::object();
  o.set("active_infected", timeseries_to_json(result.active_infected));
  o.set("ever_infected", timeseries_to_json(result.ever_infected));
  o.set("removed", timeseries_to_json(result.removed));
  o.set("seed_subnet_infected",
        result.seed_subnet_infected.empty()
            ? JsonValue()
            : timeseries_to_json(result.seed_subnet_infected));
  o.set("predator_infected",
        result.predator_infected.empty()
            ? JsonValue()
            : timeseries_to_json(result.predator_infected));
  o.set("immunization_start_tick",
        JsonValue::number(result.immunization_start_tick));
  o.set("detection_tick", JsonValue::number(result.detection_tick));
  o.set("total_scan_packets", JsonValue::integer(result.total_scan_packets));
  o.set("total_queued_packet_events",
        JsonValue::integer(result.total_queued_packet_events));
  o.set("worm_packets_dropped",
        JsonValue::integer(result.worm_packets_dropped));
  o.set("final_ever_infected_count",
        JsonValue::integer(result.final_ever_infected_count));
  o.set("legit_sent", JsonValue::integer(result.legit_sent));
  o.set("legit_delivered", JsonValue::integer(result.legit_delivered));
  o.set("legit_dropped", JsonValue::integer(result.legit_dropped));
  o.set("mean_legit_delay", JsonValue::number(result.mean_legit_delay));
  o.set("max_legit_delay", JsonValue::number(result.max_legit_delay));
  o.set("quarantine", quarantine::report_to_json(result.quarantine));
  o.set("quarantine_dropped_packets",
        JsonValue::integer(result.quarantine_dropped_packets));
  o.set("legit_quarantine_dropped",
        JsonValue::integer(result.legit_quarantine_dropped));
  o.set("perf", perf_counters_to_json(result.perf));
  return o;
}

JsonValue figure_to_json(const core::FigureData& figure) {
  JsonValue o = JsonValue::object();
  o.set("id", JsonValue::str(figure.id));
  o.set("title", JsonValue::str(figure.title));
  o.set("x_label", JsonValue::str(figure.x_label));
  o.set("y_label", JsonValue::str(figure.y_label));
  JsonValue series = JsonValue::array();
  for (const core::NamedSeries& s : figure.series) {
    JsonValue entry = JsonValue::object();
    entry.set("label", JsonValue::str(s.label));
    entry.set("series", timeseries_to_json(s.series));
    series.push_back(std::move(entry));
  }
  o.set("series", std::move(series));
  return o;
}

core::FigureData figure_from_json(const JsonValue& v) {
  core::FigureData out;
  out.id = v.at("id").as_string();
  out.title = v.at("title").as_string();
  out.x_label = v.at("x_label").as_string();
  out.y_label = v.at("y_label").as_string();
  for (const JsonValue& entry : v.at("series").items())
    out.series.push_back({entry.at("label").as_string(),
                          timeseries_from_json(entry.at("series"))});
  return out;
}

}  // namespace dq::campaign
