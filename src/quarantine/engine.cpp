#include "quarantine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

namespace dq::quarantine {

// obs::QState mirrors HostQState so the obs layer stays free of
// quarantine headers; keep the numeric values locked together.
static_assert(static_cast<std::uint8_t>(HostQState::kFree) ==
              static_cast<std::uint8_t>(obs::QState::kFree));
static_assert(static_cast<std::uint8_t>(HostQState::kSuspected) ==
              static_cast<std::uint8_t>(obs::QState::kSuspected));
static_assert(static_cast<std::uint8_t>(HostQState::kQuarantined) ==
              static_cast<std::uint8_t>(obs::QState::kQuarantined));

QuarantineEngine::QuarantineEngine(std::size_t num_hosts,
                                   const QuarantineConfig& config)
    : config_(config), hosts_(num_hosts) {
  config_.validate();
  if (num_hosts == 0)
    throw std::invalid_argument("QuarantineEngine: need at least one host");
  if (config_.estimator_backend == EstimatorBackend::kSharedBitmap)
    store_ = std::make_unique<CompactEstimatorStore>(
        num_hosts, config_.detector, config_.compact);
  else
    detectors_.resize(num_hosts);
}

void QuarantineEngine::set_obs(obs::Sink sink) {
  obs_ = sink;
  obs_strikes_ = nullptr;
  obs_transitions_ = nullptr;
  if (obs_.metrics != nullptr) {
    obs_strikes_ = &obs_.metrics->counter("quarantine.strikes");
    obs_transitions_ = &obs_.metrics->counter("quarantine.transitions");
  }
}

void QuarantineEngine::emit_transition(std::uint32_t host, HostQState from,
                                       HostQState to, double when) {
  if (obs_transitions_ != nullptr) obs_transitions_->add();
  obs::Event e;
  e.time = when;
  e.id = host;
  e.kind = obs::EventKind::kQuarantineTransition;
  e.a = static_cast<std::uint8_t>(from);
  e.b = static_cast<std::uint8_t>(to);
  e.value = hosts_[host].offenses;
  obs_.emit(e);
}

void QuarantineEngine::advance_to(double now) {
  while (!releases_.empty() && releases_.top().first <= now) {
    const std::uint32_t host = releases_.top().second;
    releases_.pop();
    release(host);
  }
}

void QuarantineEngine::quarantine(std::uint32_t host, double now) {
  HostRecord& rec = hosts_[host];
  rec.state = HostQState::kQuarantined;
  ++rec.offenses;
  const double period = std::min(
      config_.policy.base_period *
          std::pow(config_.policy.escalation,
                   static_cast<double>(rec.offenses - 1)),
      config_.policy.max_period);
  rec.quarantine_start = now;
  rec.release_time = now + period;
  if (rec.first_quarantined < 0.0) rec.first_quarantined = now;
  releases_.push({rec.release_time, host});
  ++events_;
  ++active_;
  if (obs_) emit_transition(host, HostQState::kSuspected, rec.state, now);
}

void QuarantineEngine::release(std::uint32_t host) {
  HostRecord& rec = hosts_[host];
  rec.state = HostQState::kFree;
  rec.strikes = 0;
  rec.quarantine_time += rec.release_time - rec.quarantine_start;
  if (obs_)
    emit_transition(host, HostQState::kQuarantined, HostQState::kFree,
                    rec.release_time);
  // A released host restarts with a clean detector; if it is still
  // misbehaving it will re-strike within a window or two and serve the
  // escalated period.
  if (store_)
    store_->reset_host(host);
  else
    detectors_[host].reset();
  --active_;
}

void QuarantineEngine::observe(std::uint32_t host, std::uint64_t dest_key,
                               double now, bool failed) {
  HostRecord& rec = hosts_[host];
  if (rec.state == HostQState::kQuarantined) return;

  const ObservationOutcome outcome =
      store_ ? store_->observe(host, now, dest_key, failed)
             : detectors_[host].observe(config_.detector, now, dest_key,
                                        failed);

  if (outcome.clean_windows > 0 && rec.strikes > 0) {
    rec.strikes = outcome.clean_windows >= rec.strikes
                      ? 0
                      : rec.strikes -
                            static_cast<std::uint32_t>(outcome.clean_windows);
    if (rec.strikes == 0 && rec.state == HostQState::kSuspected) {
      rec.state = HostQState::kFree;
      if (obs_)
        emit_transition(host, HostQState::kSuspected, HostQState::kFree, now);
    }
  }

  if (!outcome.strike) return;
  ++rec.strikes;
  if (obs_) {
    if (obs_strikes_ != nullptr) obs_strikes_->add();
    obs::Event e;
    e.time = now;
    e.id = host;
    e.kind = obs::EventKind::kDetectorStrike;
    e.value = rec.strikes;
    obs_.emit(e);
  }
  if (rec.state == HostQState::kFree) {
    rec.state = HostQState::kSuspected;
    if (rec.first_suspected < 0.0) rec.first_suspected = now;
    if (obs_)
      emit_transition(host, HostQState::kFree, HostQState::kSuspected, now);
  }
  if (rec.strikes >= config_.policy.strikes_to_quarantine)
    quarantine(host, now);
}

double record_quarantine_time(const HostRecord& rec, double now) noexcept {
  double total = rec.quarantine_time;
  if (rec.state == HostQState::kQuarantined)
    total += std::max(0.0, now - rec.quarantine_start);
  return total;
}

void QuarantineEngine::restore_host(std::uint32_t host,
                                    const HostRecord& rec,
                                    const DetectorState& det) {
  if (hosts_[host].state == HostQState::kQuarantined)
    throw std::logic_error(
        "QuarantineEngine::restore_host: host already quarantined "
        "(restore requires a fresh engine)");
  hosts_[host] = rec;
  if (store_)
    store_->restore_host(host, det);
  else
    detectors_[host].load(det);
  if (rec.state == HostQState::kQuarantined) {
    releases_.push({rec.release_time, host});
    ++active_;
  }
}

double QuarantineEngine::quarantine_time(std::uint32_t host,
                                         double now) const {
  return record_quarantine_time(hosts_[host], now);
}

QuarantineReport QuarantineEngine::report(
    const std::vector<double>& label_time, double now) const {
  if (label_time.size() != hosts_.size())
    throw std::invalid_argument(
        "QuarantineEngine::report: label vector size mismatch");
  return report_from_records(
      [this](std::size_t h) -> const HostRecord& { return hosts_[h]; },
      label_time, now, events_);
}

QuarantineReport average_quarantine_reports(
    const std::vector<QuarantineReport>& reports) {
  if (reports.empty())
    throw std::invalid_argument("average_quarantine_reports: empty input");
  QuarantineReport mean;
  mean.target_hosts = reports.front().target_hosts;
  mean.benign_hosts = reports.front().benign_hosts;
  double latency_sum = 0.0;
  std::size_t latency_runs = 0;
  for (const QuarantineReport& r : reports) {
    mean.detected_targets += r.detected_targets;
    mean.detection_rate += r.detection_rate;
    mean.false_positive_hosts += r.false_positive_hosts;
    mean.false_positive_rate += r.false_positive_rate;
    mean.benign_quarantine_time += r.benign_quarantine_time;
    mean.mean_benign_quarantine_time += r.mean_benign_quarantine_time;
    mean.target_quarantine_time += r.target_quarantine_time;
    mean.quarantine_events += r.quarantine_events;
    if (r.mean_detection_latency >= 0.0) {
      latency_sum += r.mean_detection_latency;
      ++latency_runs;
    }
  }
  const double n = static_cast<double>(reports.size());
  mean.detected_targets /= n;
  mean.detection_rate /= n;
  mean.false_positive_hosts /= n;
  mean.false_positive_rate /= n;
  mean.benign_quarantine_time /= n;
  mean.mean_benign_quarantine_time /= n;
  mean.target_quarantine_time /= n;
  mean.quarantine_events /= n;
  mean.mean_detection_latency =
      latency_runs > 0 ? latency_sum / static_cast<double>(latency_runs)
                       : -1.0;
  return mean;
}

}  // namespace dq::quarantine
