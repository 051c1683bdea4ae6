// The dynamic-quarantine engine: per-host detectors plus the timed
// quarantine/release state machine, with the metrics layer needed to
// evaluate the policy (detection latency, false-positive rate, and the
// bounded quarantine-time penalty charged to well-behaved hosts).
//
// The engine is deterministic and RNG-free: identical observation
// sequences produce identical decisions, so simulations that embed it
// keep their fixed-seed reproducibility, and it is shared unchanged by
// the packet simulator (src/simulator) and the trace replay
// (src/trace/quarantine_replay).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "obs/sink.hpp"
#include "quarantine/compact_store.hpp"
#include "quarantine/config.hpp"
#include "quarantine/detectors.hpp"

namespace dq::quarantine {

enum class HostQState : std::uint8_t {
  kFree,
  kSuspected,    ///< strikes accumulating, not yet quarantined
  kQuarantined,  ///< isolated/throttled until its release time
};

/// Per-host bookkeeping, exposed for tests and reporting.
struct HostRecord {
  HostQState state = HostQState::kFree;
  std::uint32_t strikes = 0;
  std::uint32_t offenses = 0;       ///< times quarantined
  double first_suspected = -1.0;
  double first_quarantined = -1.0;
  double quarantine_start = 0.0;    ///< while kQuarantined
  double release_time = 0.0;        ///< while kQuarantined
  double quarantine_time = 0.0;     ///< completed intervals only
};

/// Policy-evaluation summary against ground-truth labels. Counts are
/// doubles so multi-run averages stay exact.
struct QuarantineReport {
  std::size_t target_hosts = 0;   ///< labeled bad (e.g. infected)
  std::size_t benign_hosts = 0;
  double detected_targets = 0.0;  ///< targets quarantined at least once
  double detection_rate = 0.0;    ///< detected / targets (0 if none)
  /// Mean of (first quarantine − label time) over detected targets,
  /// clamped at 0; −1 when nothing was detected.
  double mean_detection_latency = -1.0;
  double false_positive_hosts = 0.0;  ///< benign hosts ever quarantined
  double false_positive_rate = 0.0;   ///< FP hosts / benign hosts
  /// Cumulative quarantine time served by benign hosts — the bounded
  /// collateral penalty the paper argues makes aggressive detection
  /// affordable.
  double benign_quarantine_time = 0.0;
  double mean_benign_quarantine_time = 0.0;  ///< per FP host (0 if none)
  double target_quarantine_time = 0.0;
  double quarantine_events = 0.0;  ///< total quarantines imposed
};

/// Pointwise mean of per-run reports (host counts must match; latency
/// averages over runs that detected anything). Throws on empty input.
QuarantineReport average_quarantine_reports(
    const std::vector<QuarantineReport>& reports);

/// Quarantine time served by `rec` including any interval still open at
/// `now` — the per-record form of QuarantineEngine::quarantine_time.
double record_quarantine_time(const HostRecord& rec, double now) noexcept;

/// The report() computation over the record `record_at(h)` returns for
/// each host h < label_time.size(), read in that order. The serve
/// pipeline and the sharded simulator read each record in place from
/// per-shard engines in *global host order*, so the floating-point
/// accumulation order — and therefore the bytes of the report — match a
/// single engine over the same flow stream. `events` is the total
/// quarantine count (summed across engines).
template <class RecordAt>
QuarantineReport report_from_records(RecordAt&& record_at,
                                     const std::vector<double>& label_time,
                                     double now, std::uint64_t events) {
  QuarantineReport out;
  double latency_sum = 0.0;
  for (std::size_t h = 0; h < label_time.size(); ++h) {
    const HostRecord& rec = record_at(h);
    if (label_time[h] >= 0.0) {
      ++out.target_hosts;
      out.target_quarantine_time += record_quarantine_time(rec, now);
      if (rec.first_quarantined >= 0.0) {
        out.detected_targets += 1.0;
        latency_sum += std::max(0.0, rec.first_quarantined - label_time[h]);
      }
    } else {
      ++out.benign_hosts;
      if (rec.offenses > 0) {
        out.false_positive_hosts += 1.0;
        out.benign_quarantine_time += record_quarantine_time(rec, now);
      }
    }
  }
  if (out.target_hosts > 0)
    out.detection_rate =
        out.detected_targets / static_cast<double>(out.target_hosts);
  if (out.detected_targets > 0.0)
    out.mean_detection_latency = latency_sum / out.detected_targets;
  if (out.benign_hosts > 0)
    out.false_positive_rate =
        out.false_positive_hosts / static_cast<double>(out.benign_hosts);
  if (out.false_positive_hosts > 0.0)
    out.mean_benign_quarantine_time =
        out.benign_quarantine_time / out.false_positive_hosts;
  out.quarantine_events = static_cast<double>(events);
  return out;
}

class QuarantineEngine {
 public:
  /// Validates the config (throws std::invalid_argument).
  QuarantineEngine(std::size_t num_hosts, const QuarantineConfig& config);

  /// Processes quarantine expirations up to `now`. Call once per tick
  /// (simulator) or per event time (replay) before consulting states.
  void advance_to(double now);

  /// Feeds one attempted contact by `host`. Observations from hosts
  /// currently quarantined are ignored — an isolated host generates no
  /// observable traffic. May move the host through
  /// kFree → kSuspected → kQuarantined.
  void observe(std::uint32_t host, std::uint64_t dest_key, double now,
               bool failed);

  HostQState state(std::uint32_t host) const { return hosts_[host].state; }
  bool quarantined(std::uint32_t host) const {
    return hosts_[host].state == HostQState::kQuarantined;
  }
  const HostRecord& record(std::uint32_t host) const { return hosts_[host]; }
  const QuarantineConfig& config() const noexcept { return config_; }
  std::size_t num_hosts() const noexcept { return hosts_.size(); }
  std::uint64_t quarantine_events() const noexcept { return events_; }
  std::size_t currently_quarantined() const noexcept { return active_; }

  /// Attaches an observability sink: state transitions and detector
  /// strikes are emitted as trace events, and `quarantine.strikes` /
  /// `quarantine.transitions` counters update live. The default null
  /// sink costs one branch per transition. Deterministic either way.
  void set_obs(obs::Sink sink);

  /// Quarantine time served by `host` including any open interval.
  double quarantine_time(std::uint32_t host, double now) const;

  // Checkpoint/restore hooks (quarantine/snapshot.hpp). restore_host
  // overwrites one host's record and detector on a freshly constructed
  // engine — a restored kQuarantined host re-enters the release queue.
  // Calling it on a host that is already quarantined would double-count
  // the release entry, so a checkpoint restore always starts from a
  // new engine.
  DetectorState detector_state(std::uint32_t host) const {
    return store_ ? store_->host_state(host) : detectors_[host].save();
  }
  /// The shared-bitmap store when config().estimator_backend is
  /// kSharedBitmap, nullptr under kExact. The snapshot layer uses it to
  /// serialize/restore the block pools alongside the per-host columns.
  const CompactEstimatorStore* compact_store() const noexcept {
    return store_.get();
  }
  CompactEstimatorStore* compact_store() noexcept { return store_.get(); }
  void restore_host(std::uint32_t host, const HostRecord& rec,
                    const DetectorState& det);
  /// Carries the quarantine-event count of a checkpointed prefix
  /// forward so report totals match the uninterrupted run.
  void add_quarantine_events(std::uint64_t n) noexcept { events_ += n; }

  /// Evaluates against ground truth: label_time[h] >= 0 marks host h a
  /// target with that onset time (e.g. its infection tick); < 0 marks
  /// it benign.
  QuarantineReport report(const std::vector<double>& label_time,
                          double now) const;

 private:
  void quarantine(std::uint32_t host, double now);
  void release(std::uint32_t host);
  void emit_transition(std::uint32_t host, HostQState from, HostQState to,
                       double when);

  obs::Sink obs_;
  obs::Counter* obs_strikes_ = nullptr;
  obs::Counter* obs_transitions_ = nullptr;
  QuarantineConfig config_;
  std::vector<HostRecord> hosts_;
  /// Exactly one backend is populated, per config_.estimator_backend:
  /// private exact detectors, or the block-shared compact store.
  std::vector<HostDetector> detectors_;
  std::unique_ptr<CompactEstimatorStore> store_;
  /// Pending releases: (release_time, host), earliest first. A host is
  /// enqueued at most once (it cannot be re-quarantined while already
  /// quarantined).
  using Release = std::pair<double, std::uint32_t>;
  std::priority_queue<Release, std::vector<Release>, std::greater<>>
      releases_;
  std::uint64_t events_ = 0;
  std::size_t active_ = 0;
};

}  // namespace dq::quarantine
