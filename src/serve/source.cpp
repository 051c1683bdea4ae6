#include "serve/source.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "stats/hash.hpp"

namespace dq::serve {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool is_worm_category(trace::HostCategory c) noexcept {
  return c == trace::HostCategory::kWormBlaster ||
         c == trace::HostCategory::kWormWelchia;
}

}  // namespace

NdjsonFlowSource::NdjsonFlowSource(std::istream& in, std::uint32_t num_hosts)
    : in_(in), num_hosts_(num_hosts) {}

bool NdjsonFlowSource::next(Flow& out) {
  while (std::getline(in_, line_)) {
    // Tolerate CRLF input; a bare '\r' line is then empty, i.e. blank.
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (line_.empty()) continue;
    if (parse_flow_line(line_, num_hosts_, out)) return true;
    ++parse_errors_;
    if (samples_.size() < kMaxErrorSamples)
      samples_.push_back(line_.substr(0, kMaxSampleLength));
  }
  return false;
}

bool NdjsonFlowSource::would_block() const {
  return in_.rdbuf() != nullptr && in_.rdbuf()->in_avail() == 0;
}

TraceFlowSource::TraceFlowSource(const trace::Trace& trace, double speed)
    : trace_(trace), speed_(speed) {
  if (!trace_.finalized())
    throw std::invalid_argument("TraceFlowSource: trace not finalized");
  if (trace_.num_hosts() == 0)
    throw std::invalid_argument("TraceFlowSource: trace has no census");
}

double TraceFlowSource::end_time_hint() const noexcept {
  return next_event_ >= trace_.events().size() ? trace_.duration() : -1.0;
}

bool TraceFlowSource::would_block() const {
  // Unpaced, or the first contact (which starts the clock) not yet read.
  if (speed_ <= 0.0 || start_ns_ == 0) return false;
  const auto& events = trace_.events();
  for (std::size_t i = next_event_; i < events.size(); ++i)
    if (events[i].type == trace::EventType::kOutboundContact)
      return due_ns(events[i].time) > now_ns();
  return false;
}

bool TraceFlowSource::next(Flow& out) {
  const auto& events = trace_.events();
  const auto& categories = trace_.host_categories();
  while (next_event_ < events.size()) {
    const trace::TraceEvent& e = events[next_event_++];
    if (e.host >= trace_.num_hosts())
      throw std::invalid_argument(
          "TraceFlowSource: event host outside census");
    const bool failed = oracle_.observe(e);
    if (e.type != trace::EventType::kOutboundContact) continue;
    if (speed_ > 0.0) {
      if (start_ns_ == 0) start_ns_ = now_ns();
      const std::uint64_t due = due_ns(e.time);
      const std::uint64_t now = now_ns();
      if (due > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    out = Flow{};
    out.time = e.time;
    out.host = e.host;
    out.dest = e.remote;
    out.failed = failed;
    out.labeled_worm = is_worm_category(categories[e.host]);
    return true;
  }
  return false;
}

SyntheticFlowSource::SyntheticFlowSource(const SyntheticConfig& config)
    : config_(config) {
  if (config_.hosts == 0)
    throw std::invalid_argument("SyntheticFlowSource: hosts must be > 0");
  if (config_.benign_dest_pool == 0)
    throw std::invalid_argument(
        "SyntheticFlowSource: benign_dest_pool must be > 0");
  worm_hosts_ = static_cast<std::uint32_t>(
      static_cast<double>(config_.hosts) * config_.worm_fraction);
  next_flow_ = config_.start_flow;
}

bool SyntheticFlowSource::next(Flow& out) {
  if (next_flow_ >= config_.flows) return false;
  const std::uint64_t i = next_flow_++;
  // Three decorrelated draws per flow, all pure functions of (seed, i).
  const std::uint64_t r0 = mix64(config_.seed ^ (i * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t r1 = mix64(r0 ^ 0xd1b54a32d192ed03ULL);
  const std::uint64_t r2 = mix64(r1 ^ 0x8cb92ba72f3d8dd7ULL);

  const auto host = static_cast<std::uint32_t>(r0 % config_.hosts);
  const bool worm = host < worm_hosts_;
  out = Flow{};
  out.time = static_cast<double>(i) * config_.flow_interval;
  out.host = host;
  out.dest = worm ? r1
                  : static_cast<std::uint64_t>(host) *
                            config_.benign_dest_pool +
                        r1 % config_.benign_dest_pool;
  // 53-bit uniform in [0,1) from r2, same recipe as Rng::uniform.
  const double u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
  out.failed =
      u < (worm ? config_.worm_failure_prob : config_.benign_failure_prob);
  out.labeled_worm = worm;
  return true;
}

}  // namespace dq::serve
