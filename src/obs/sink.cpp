#include "obs/sink.hpp"

#include <ostream>
#include <sstream>

#include "obs/ndjson.hpp"

namespace dq::obs {

MultiRunSink::MultiRunSink(std::size_t runs, std::size_t ring_capacity)
    : runs_(runs) {
  // Eviction happens only when tracing (an untraced run has no ring
  // and counts 0), so the counter is flagged kWallClock to keep it out
  // of deterministic snapshots: artifacts are byte-identical traced or
  // not. On overflow a ring overwrites its oldest event; campaign jobs
  // report the evictions as JobOutcome::trace_dropped.
  trace_dropped_ = &metrics_.counter("trace.dropped", Determinism::kWallClock);
  if (ring_capacity > 0) {
    rings_.reserve(runs);
    for (std::size_t r = 0; r < runs; ++r) rings_.emplace_back(ring_capacity);
  }
}

Sink MultiRunSink::run_sink(std::size_t run) {
  Sink s;
  s.metrics = &metrics_;
  if (!rings_.empty()) {
    s.trace = &rings_.at(run);
    s.trace_dropped = trace_dropped_;
  }
  return s;
}

void MultiRunSink::write_ndjson(std::ostream& out) const {
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    for (const Event& e : rings_[r].events())
      out << event_to_ndjson_line(e, static_cast<long>(r));
  }
}

std::string MultiRunSink::export_ndjson() const {
  std::ostringstream out;
  write_ndjson(out);
  return out.str();
}

}  // namespace dq::obs
