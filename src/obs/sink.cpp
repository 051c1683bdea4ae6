#include "obs/sink.hpp"

#include <ostream>

#include "obs/ndjson.hpp"

namespace dq::obs {

MultiRunSink::MultiRunSink(std::size_t runs, std::size_t ring_capacity)
    : runs_(runs) {
  // On overflow a ring overwrites its oldest event; campaign jobs
  // report the evictions as JobOutcome::trace_dropped.
  if (ring_capacity > 0) {
    rings_.reserve(runs);
    for (std::size_t r = 0; r < runs; ++r) rings_.emplace_back(ring_capacity);
  }
}

Sink MultiRunSink::run_sink(std::size_t run) {
  Sink s;
  s.metrics = &metrics_;
  if (!rings_.empty()) s.trace = &rings_.at(run);
  return s;
}

void MultiRunSink::write_ndjson(std::ostream& out) const {
  for (std::size_t r = 0; r < rings_.size(); ++r) {
    for (const Event& e : rings_[r].events())
      out << event_to_ndjson_line(e, static_cast<long>(r));
  }
}

}  // namespace dq::obs
