// Fault-injection registry for the serve pipeline's chaos tests.
//
// A failpoint spec is a comma-separated list of NAME[:ARG[:ARG]]
// entries, configured via `dqctl serve --inject SPEC`:
//
//   slow_shard:S:MICROS   shard S's worker sleeps MICROS microseconds
//                         per flow (interruptibly, so an aborting run
//                         still tears down in ~1 ms). Drives the
//                         overload-shedding and stall-watchdog tests.
//   sink_error:K          the next K decision-stream writes fail
//                         transiently; the server keeps the bytes
//                         buffered and retries (serve.sink_retries), so
//                         the emitted stream stays byte-identical.
//   torn_checkpoint:K     the Kth checkpoint write (1-based) is torn:
//                         only the first half of the bytes are handed
//                         to the atomic replace. Proves restore rejects
//                         truncated checkpoints.
//
// The registry is process-global (the CLI configures it before the
// server runs) and read from hot paths with relaxed atomics; with no
// spec installed the only cost is one boolean load per worker batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dq::serve {

class Failpoints {
 public:
  /// Parses and installs `spec`, replacing any previous configuration;
  /// an empty spec clears every failpoint. Throws std::invalid_argument
  /// on bad grammar (unknown name, missing/garbage argument). Not
  /// thread-safe against a concurrently running server — configure
  /// before run().
  void configure(std::string_view spec);
  void clear() { configure({}); }

  /// Any failpoint installed? Hot paths gate on this before touching
  /// the specific queries.
  bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Injected per-flow delay for `shard` in microseconds (0: none).
  std::uint64_t slow_shard_micros(std::size_t shard) const noexcept;

  /// Consumes one pending transient sink-write failure; true when this
  /// write should fail.
  bool consume_sink_error() noexcept;

  /// Counts a checkpoint write; true when this one should be torn.
  bool consume_torn_checkpoint() noexcept;

  /// The process-wide instance the serve pipeline consults.
  static Failpoints& global() noexcept;

 private:
  std::atomic<bool> active_{false};
  std::vector<std::pair<std::size_t, std::uint64_t>> slow_shards_;
  std::atomic<std::int64_t> sink_errors_{0};
  std::atomic<std::uint64_t> checkpoint_writes_{0};
  std::uint64_t torn_checkpoint_at_ = 0;  ///< 0: never
};

/// Scoped configure/clear for tests: installs `spec` on the global
/// registry, clears it on destruction even if the test throws.
class ScopedFailpoints {
 public:
  explicit ScopedFailpoints(std::string_view spec) {
    Failpoints::global().configure(spec);
  }
  ~ScopedFailpoints() { Failpoints::global().clear(); }
  ScopedFailpoints(const ScopedFailpoints&) = delete;
  ScopedFailpoints& operator=(const ScopedFailpoints&) = delete;
};

}  // namespace dq::serve
