// Typed tick-level trace events and the fixed-capacity per-run ring
// buffer that stores them. One ring per simulation run, written from
// that run's thread only (rings are not thread-safe; the registry is).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dq::obs {

enum class EventKind : std::uint8_t {
  kInfection = 0,         ///< node became infected (node = victim)
  kQueuePark,             ///< rate limiter parked a packet (id = site)
  kQueueRelease,          ///< parked packet released (id = site)
  kResponseDrop,          ///< response filter dropped a packet (node = src)
  kQuarantineDrop,        ///< quarantine boundary dropped packets
  kDetectorStrike,        ///< host detector raised a strike (node = host)
  kQuarantineTransition,  ///< host state change (a = from, b = to)
  kDetectorAlarm,         ///< global detector tripped (value = sightings)
  kImmunizationStart,     ///< immunization campaign began
  kImmunization,          ///< node patched/removed (node = host)
  kPredatorTake,          ///< predator converted a node (node = host)
  kCheckpointWrite,       ///< serve checkpoint written (value = flows)
  kCheckpointRestore,     ///< serve resumed from checkpoint (value = flows)
  kShedStart,             ///< serve entered overload shedding
  kShedEnd,               ///< serve left shedding (value = flows shed)
  kSinkRetry,             ///< decision-sink write retried (value = retries)
  kStall,                 ///< pipeline stall detected (id = shard)
};

/// Stable snake_case names used in NDJSON output.
const char* to_string(EventKind kind) noexcept;

/// Quarantine host states as emitted in kQuarantineTransition events.
/// Values mirror quarantine::HostQState (engine.cpp static_asserts the
/// correspondence); obs keeps its own copy so the layer has no
/// dependency on the quarantine headers.
enum class QState : std::uint8_t { kFree = 0, kSuspected = 1, kQuarantined = 2 };

const char* to_string(QState state) noexcept;

/// 24-byte POD event. `a`/`b`/`value` are kind-specific:
///  - kQueuePark/kQueueRelease: a = 1 when the site is the capped hub
///    node (id is a node), 0 when id is a link index.
///  - kResponseDrop: b = packet kind (0 worm, 1 predator, 2 legit),
///    value = link index the drop happened on.
///  - kQuarantineDrop: a = 1 for inbound (id = destination host),
///    0 for outbound (id = quarantined source); b = packet kind for
///    inbound drops; value = number of packets dropped.
///  - kDetectorStrike: value = strike count after this strike.
///  - kQuarantineTransition: a = from-state, b = to-state (QState),
///    value = offense count.
struct Event {
  double time = 0.0;
  std::uint32_t id = 0;
  EventKind kind = EventKind::kInfection;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint64_t value = 0;
};

/// Fixed-capacity ring of Events. When full, push() overwrites the
/// oldest event and counts it in evicted() — newest events are always
/// retained. Single-writer; capacity 0 is a valid no-op ring that
/// drops everything.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity) : capacity_(capacity) {
    events_.reserve(capacity);
  }

  void push(const Event& e) noexcept {
    if (capacity_ == 0) {
      ++evicted_;
      return;
    }
    if (events_.size() < capacity_) {
      events_.push_back(e);
      return;
    }
    events_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    ++evicted_;
  }

  std::size_t size() const noexcept { return events_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  /// Events lost to overwrite (oldest-dropped) or a zero-capacity ring.
  std::uint64_t evicted() const noexcept { return evicted_; }

  /// Events oldest-first.
  std::vector<Event> events() const {
    std::vector<Event> out;
    out.reserve(events_.size());
    for (std::size_t i = 0; i < events_.size(); ++i)
      out.push_back(events_[(head_ + i) % events_.size()]);
    return out;
  }

  void clear() noexcept {
    events_.clear();
    head_ = 0;
    evicted_ = 0;
  }

 private:
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< index of the oldest event once full
  std::uint64_t evicted_ = 0;
  std::vector<Event> events_;
};

}  // namespace dq::obs
