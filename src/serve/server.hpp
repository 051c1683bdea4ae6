// The streaming quarantine service behind `dqctl serve`: a router
// thread ingests a flow stream, hash-partitions it by source host
// across N shards, and drives one independent QuarantineEngine per
// shard through lock-free SPSC queues, merging per-flow decisions back
// into a single NDJSON stream in ingest order.
//
// Determinism contract (docs/SERVE.md): every decision depends only on
// its host's prior flows, which sharding by host keeps in order, so the
// merged decision stream — and the final summary, assembled from
// per-host records gathered in global host order — is byte-identical
// at any shard count. Wall-clock telemetry (decision latency, flows/s)
// lives in kWallClock metrics and the human stderr summary, never in
// the decision stream.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "quarantine/config.hpp"
#include "quarantine/engine.hpp"
#include "serve/checkpoint.hpp"
#include "serve/source.hpp"

namespace dq::serve {

/// What the router does when a shard's in-queue is full.
enum class OverloadPolicy : std::uint8_t {
  /// Wait with bounded exponential backoff (yield, then sleeps capped
  /// at ~1 ms). Never drops a flow; a wedged shard eventually trips the
  /// stall watchdog instead of hanging forever. Stall episodes are
  /// counted in `serve.router_stalls`.
  kBlock,
  /// Degrade instead of stalling: drop the flow, count it in
  /// `serve.shed_flows`, and mark the summary degraded. Shed flows get
  /// no decision line (their seq numbers are gaps in the stream).
  kShed,
};

/// Raised by ServeServer::run when the stall watchdog fires: some shard
/// made no progress for stall_timeout_seconds while work was
/// outstanding. what() carries the per-shard diagnostic.
class ServeStallError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ServeOptions {
  std::size_t shards = 1;
  /// Host universe; flows address hosts [0, num_hosts). Each shard's
  /// engine is sized to the hosts hashed to it, so total detector
  /// state is one num_hosts regardless of shard count.
  std::uint32_t num_hosts = 1u << 16;
  quarantine::QuarantineConfig quarantine;
  /// Per-shard SPSC ring capacity (rounded up to a power of two).
  std::size_t queue_capacity = 4096;
  /// Every N ingested flows, write a full metrics snapshot line to the
  /// metrics stream (0 disables; a final snapshot is always written
  /// when a metrics stream is given).
  std::uint64_t metrics_interval_flows = 0;
  /// Wall-clock variant: the health sampler writes a full metrics
  /// snapshot line every N milliseconds (0 disables). Independent of
  /// metrics_interval_flows — both may be active; each snapshot line is
  /// complete on its own, so interleaving is harmless. The wall-clock
  /// cadence is what keeps paced `--speed` replays observable when flow
  /// counts trickle. Enabling it (or prom_path / metrics_addr) also
  /// turns on the per-shard health gauges (queue depth, backlog,
  /// decided, RSS), all kWallClock.
  std::uint64_t metrics_interval_ms = 0;
  /// Prometheus text-exposition file, replaced (dq::replace_file) on
  /// every health-sampler tick and once at the end of the run (empty
  /// disables). Uses the sampler cadence when metrics_interval_ms > 0,
  /// else a 1000 ms default. A failed rewrite on a tick is retried at
  /// the next one; a failed final rewrite makes run() throw.
  std::string prom_path;
  /// HTTP listener address for `GET /metrics` ("host:port", ":port",
  /// or "port"; port 0 picks an ephemeral port — read it back with
  /// metrics_port()). Empty disables. The listener binds in the
  /// constructor and serves for the server's lifetime.
  std::string metrics_addr;
  /// Decision-latency SLO in milliseconds (0 disables): flows whose
  /// ingest-to-decision latency exceeds this are counted in
  /// `serve.slo_breaches` and the summary gains slo_breaches /
  /// `"slo_breached"`. Wall-clock-dependent, like the latency
  /// histogram it derives from.
  double slo_ms = 0.0;
  /// Span profiler for router/worker/checkpoint phase timing (null
  /// disables — instrumentation sites cost one branch). Spans never
  /// touch decision state, so profiled runs are byte-identical.
  obs::Profiler* profiler = nullptr;
  /// Event sink for robustness transitions (checkpoint write/restore,
  /// shed start/end, sink retry, stall). Only the TraceRing side is
  /// consulted; all events are emitted from the router thread.
  obs::Sink obs;
  /// Testing hook for the graceful-shutdown path: raise SIGTERM to the
  /// process after ingesting exactly N flows (0 disables). Exercises
  /// the real signal handler deterministically.
  std::uint64_t stop_after_flows = 0;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Stall watchdog: fail the run with ServeStallError when a shard
  /// with outstanding work makes no progress for this many wall-clock
  /// seconds (0 disables).
  double stall_timeout_seconds = 0.0;
  /// Checkpoint target path (empty disables). When set, a final
  /// checkpoint is always written as the run completes or drains after
  /// a stop — so `--stop-after N --checkpoint-out F` persists the state
  /// at exactly flow N.
  std::string checkpoint_path;
  /// Additionally checkpoint every N ingested flows (0: final only).
  std::uint64_t checkpoint_interval_flows = 0;
  /// Resume state from serve::load_checkpoint_file. The source must
  /// deliver the flows after restore->flows_ingested; num_hosts and the
  /// quarantine config must match the checkpoint (validated in the
  /// constructor). Decision seq numbers continue from the checkpoint,
  /// so prefix + resumed stream is byte-identical to an uninterrupted
  /// run at any shard count.
  std::shared_ptr<const CheckpointState> restore;
};

/// Final summary. The quarantine report uses flows' `worm` labels as
/// ground truth (a labeled host's onset is its first labeled flow);
/// with no labeled flows it degenerates to zero targets. Matches
/// QuarantineReport / trace::replay_quarantine semantics.
struct ServeSummary {
  std::uint64_t flows_ingested = 0;
  std::uint64_t flows_decided = 0;
  std::uint64_t parse_errors = 0;
  /// Flows whose time ran backwards and were clamped to the stream's
  /// running maximum (detectors need per-host non-decreasing time).
  std::uint64_t time_regressions = 0;
  /// Flows dropped by OverloadPolicy::kShed; > 0 sets `degraded`.
  std::uint64_t shed_flows = 0;
  bool degraded = false;
  /// First few malformed input lines (truncated), from the source plus
  /// any carried in via --restore. Emitted in to_json() only when
  /// non-empty.
  std::vector<std::string> parse_error_samples;
  double end_time = 0.0;
  bool interrupted = false;  ///< stopped by SIGINT/SIGTERM
  quarantine::QuarantineReport report;

  // Wall-clock telemetry — reported to stderr/metrics only, excluded
  // from to_json() so the decision stream stays deterministic.
  double wall_seconds = 0.0;
  double flows_per_sec = 0.0;
  std::uint64_t latency_p50_ns = 0;
  std::uint64_t latency_p90_ns = 0;
  std::uint64_t latency_p99_ns = 0;
  std::uint64_t latency_p999_ns = 0;

  // SLO accounting (ServeOptions::slo_ms). slo_breaches counts flows
  // over budget; both are wall-clock telemetry, but `"slo_breached"`
  // (a bool: any breach at all) is additionally emitted in to_json()
  // when an SLO was configured — callers opting into --slo-ms opt into
  // that one wall-clock-dependent summary key (docs/SERVE.md).
  double slo_ms = 0.0;
  std::uint64_t slo_breaches = 0;
  bool slo_breached = false;

  /// Canonical JSON of the deterministic fields only — the summary
  /// line appended to the decision stream.
  campaign::JsonValue to_json() const;
};

/// Installs SIGINT/SIGTERM handlers that request a graceful stop:
/// ingestion ends, queues drain, output flushes, the summary is still
/// emitted. Idempotent.
void install_stop_handlers();
bool stop_requested() noexcept;
/// Clears a pending stop request (tests; call before each run).
void reset_stop() noexcept;

class ServeServer {
 public:
  /// Validates options (throws std::invalid_argument: zero shards or
  /// hosts, invalid quarantine config).
  explicit ServeServer(const ServeOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Runs the pipeline until the source is exhausted or a stop is
  /// requested; drains every ingested flow, writes decisions (NDJSON,
  /// ending with the summary line) to `decisions` and metrics
  /// snapshot lines to `metrics`, and returns the summary. Either
  /// stream may be null; with no decision stream the workers skip the
  /// decision queues entirely (the summary and metrics still cover
  /// every flow). Decision lines go out in flushed writes of at most
  /// ~64 KiB: within ~200 µs of the last write while flows arrive, and
  /// all of them before the router calls next() on a source whose
  /// would_block() is true. One run() per server.
  ServeSummary run(FlowSource& source, std::ostream* decisions,
                   std::ostream* metrics);

  /// Live registry: serve.* counters, the serve.decision_latency_ns
  /// log-2 histogram (kWallClock), and the engines' quarantine.*
  /// counters. Valid for the server's lifetime.
  const obs::MetricsRegistry& metrics() const noexcept { return *registry_; }

  /// Bound port of the `GET /metrics` listener (0 when metrics_addr was
  /// empty). Known from construction, before run().
  std::uint16_t metrics_port() const noexcept;

 private:
  struct Impl;
  // The registry comes first so it outlives the Impl, whose threads and
  // metrics listener read it.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace dq::serve
