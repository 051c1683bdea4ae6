#include "serve/server.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/prometheus.hpp"
#include "quarantine/snapshot.hpp"
#include "serve/failpoints.hpp"
#include "serve/spsc.hpp"
#include "stats/file.hpp"
#include "stats/hash.hpp"

namespace dq::serve {

namespace {

std::atomic<bool> g_stop{false};
std::atomic<bool> g_handlers_installed{false};

extern "C" void stop_signal_handler(int) { g_stop.store(true); }

constexpr std::size_t kWorkerBatch = 256;
constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
/// Pending flows between the merges that the 64 KiB write asks for: a
/// merge on every flow mostly finds its worker still deciding.
constexpr std::size_t kMergeStride = 32;
/// Longest a decided line waits in the router while flows keep
/// arriving: the first flow ingested this long after the last write
/// has the router write and flush what is ready.
constexpr std::uint64_t kFlushAgeNs = 200'000;
constexpr std::size_t kMaxSummarySamples = 5;

/// What write_decisions writes: kFull, merge()'s own call, writes once
/// outbuf holds kFlushBytes; kNow merges first and writes whatever is
/// ready; kFinal likewise but never fails.
enum class Write { kFull, kNow, kFinal };

/// One decision line as its worker formatted it: the slot type of the
/// out-queues, so the merge only splices bytes.
struct DecisionLine {
  char bytes[kMaxDecisionLineBytes];
  std::uint8_t size;
};
static_assert(kMaxDecisionLineBytes <= 0xff, "size must fit DecisionLine");

/// Bounded exponential backoff for queue waits (a full queue, or an
/// idle worker's empty one): a few yields, then sleeps doubling from
/// 1 µs to a 1 ms cap — a stalled peer costs microseconds of wake-up
/// latency instead of a pegged core, and the caller gets a periodic
/// hook (each pause) to notice aborts.
class Backoff {
 public:
  void pause() noexcept {
    if (spins_ < kYields) {
      ++spins_;
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us_));
    sleep_us_ = std::min<std::uint64_t>(sleep_us_ * 2, kMaxSleepUs);
  }

 private:
  static constexpr int kYields = 64;
  static constexpr std::uint64_t kMaxSleepUs = 1000;
  int spins_ = 0;
  std::uint64_t sleep_us_ = 1;
};

/// Sleeps `micros` in <=1 ms slices so an injected slow shard still
/// reacts to a stop within about a millisecond.
void interruptible_sleep_us(std::uint64_t micros,
                            const std::atomic<bool>& stop) {
  while (micros > 0 && !stop.load(std::memory_order_relaxed)) {
    const std::uint64_t slice = std::min<std::uint64_t>(micros, 1000);
    std::this_thread::sleep_for(std::chrono::microseconds(slice));
    micros -= slice;
  }
}

/// Resident set size from /proc/self/statm (0 where unavailable).
std::uint64_t read_rss_bytes() noexcept {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<std::uint64_t>(resident) *
         static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

obs::Event robustness_event(obs::EventKind kind, double time,
                            std::uint32_t id = 0, std::uint64_t value = 0) {
  obs::Event e;
  e.time = time;
  e.id = id;
  e.kind = kind;
  e.value = value;
  return e;
}

}  // namespace

void install_stop_handlers() {
  if (g_handlers_installed.exchange(true)) return;
  std::signal(SIGINT, stop_signal_handler);
  std::signal(SIGTERM, stop_signal_handler);
}

bool stop_requested() noexcept { return g_stop.load(); }
void reset_stop() noexcept { g_stop.store(false); }

campaign::JsonValue ServeSummary::to_json() const {
  using campaign::JsonValue;
  JsonValue s = JsonValue::object();
  s.set("flows_ingested", JsonValue::integer(flows_ingested));
  s.set("flows_decided", JsonValue::integer(flows_decided));
  s.set("parse_errors", JsonValue::integer(parse_errors));
  // Emitted only when non-empty so clean streams keep their exact
  // historical summary bytes.
  if (!parse_error_samples.empty()) {
    JsonValue samples = JsonValue::array();
    for (const std::string& line : parse_error_samples)
      samples.push_back(JsonValue::str(line));
    s.set("parse_error_samples", std::move(samples));
  }
  s.set("time_regressions", JsonValue::integer(time_regressions));
  s.set("shed_flows", JsonValue::integer(shed_flows));
  s.set("degraded", JsonValue::boolean(degraded));
  s.set("end_time", JsonValue::number(end_time));
  s.set("interrupted", JsonValue::boolean(interrupted));
  // Opt-in and wall-clock-dependent: only --slo-ms runs carry it, so
  // SLO-free streams keep their exact historical summary bytes.
  if (slo_ms > 0.0) s.set("slo_breached", JsonValue::boolean(slo_breached));
  s.set("quarantine", quarantine::report_to_json(report));

  JsonValue out = JsonValue::object();
  out.set("summary", std::move(s));
  return out;
}

struct ServeServer::Impl {
  Impl(const ServeOptions& opts, obs::MetricsRegistry& metrics_registry);

  ServeOptions options;
  bool ran = false;

  // Host partition, in blocks of `block_hosts` consecutive hosts: one
  // host under the exact backend, one estimator block under the shared
  // bitmap (sharing never crosses a block, so decisions stay
  // byte-identical at any shard count). Global block -> owner shard and
  // shard-local block index; hosts owned per shard.
  bool compact = false;
  std::uint32_t block_hosts = 1;
  std::vector<std::uint8_t> block_owner;
  std::vector<std::uint32_t> block_local;
  std::vector<std::uint32_t> owned_count;
  std::size_t owner_of(std::uint32_t h) const {
    return block_owner[h / block_hosts];
  }
  /// A shard's blocks are whole but for the global last, so its hosts
  /// before block b number block_local[b] * block_hosts.
  std::uint32_t local_of(std::uint32_t h) const {
    return block_local[h / block_hosts] * block_hosts + h % block_hosts;
  }

  // Ground-truth worm onset per global host; each entry is written only
  // by its owner shard's worker, read by the router after the shard has
  // quiesced (checkpoint) or joined (final report).
  std::vector<double> label_time;

  std::vector<std::unique_ptr<SpscQueue<Flow>>> in_queues;
  std::vector<std::unique_ptr<SpscQueue<DecisionLine>>> out_queues;
  std::vector<std::unique_ptr<quarantine::QuarantineEngine>> engines;
  std::vector<std::thread> workers;

  /// Per-shard progress counters: `pushed` written by the router per
  /// flow, `decided` by the shard's worker after each batch (engine
  /// state for those flows is visible once the release store lands),
  /// each on its own cache line so the two writers never share one.
  /// decided == pushed means the shard is quiescent; the gap feeds the
  /// watchdog.
  struct ShardProgress {
    alignas(kCacheLine) std::atomic<std::uint64_t> pushed{0};
    alignas(kCacheLine) std::atomic<std::uint64_t> decided{0};
  };
  std::unique_ptr<ShardProgress[]> progress;

  /// Tells every thread run() started to exit at once: a worker drops
  /// what it holds, which after a drain's quiesce is nothing.
  std::atomic<bool> stop{false};
  /// Set by the watchdog after writing stall_diag.
  std::atomic<bool> stalled{false};
  std::string stall_diag;
  /// Which shard the watchdog saw wedged (valid once `stalled` is set);
  /// the router emits the kStall trace event — the ring is
  /// single-writer, so the watchdog thread must never push.
  std::atomic<std::uint32_t> stall_shard{0};
  std::thread watchdog;

  // Health sampler (wall-clock cadence) + Prometheus exposition.
  std::thread sampler;
  /// Serializes writes to the metrics ostream (router flow-count
  /// snapshots vs sampler wall-clock snapshots).
  std::mutex metrics_mu;
  bool health_enabled = false;
  std::vector<obs::Gauge*> queue_depth_g;
  std::vector<obs::Gauge*> backlog_g;
  std::vector<obs::Gauge*> decided_g;
  obs::Gauge* rss_g = nullptr;
  std::unique_ptr<obs::PromHttpListener> listener;

  // Span profiler tracks (null when profiling is off).
  obs::SpanBuffer* router_spans = nullptr;
  std::vector<obs::SpanBuffer*> worker_spans;

  std::uint64_t slo_ns = 0;  ///< 0 disables breach counting

  obs::MetricsRegistry* registry = nullptr;
  obs::Counter* flows_ingested = nullptr;
  obs::Counter* flows_decided = nullptr;
  obs::Counter* parse_errors = nullptr;
  obs::Counter* time_regressions = nullptr;
  obs::Counter* shed_flows = nullptr;
  obs::Counter* router_stalls = nullptr;
  obs::Counter* worker_stalls = nullptr;
  obs::Counter* sink_retries = nullptr;
  obs::Counter* slo_breaches = nullptr;
  obs::Histogram* latency = nullptr;

  // The run's streams, set before any thread starts.
  FlowSource* source = nullptr;
  std::ostream* decisions = nullptr;  ///< null: the workers skip the lines
  std::ostream* metrics_out = nullptr;

  // Ingest: the router clock and sequence, continuing a restored
  // checkpoint's. From here on the router writes per flow, so this
  // starts a cache line that no worker reads.
  alignas(kCacheLine) double last_time = 0.0;  ///< max of flow times
  std::uint64_t seq = 0;   ///< flows ingested
  std::uint64_t t_start = 0;

  // Scatter: the shed episode in progress.
  bool shedding = false;
  std::uint64_t shed_episode_base = 0;

  // Merge and write. `pending` is a ring of the shard that got each
  // outstanding seq; `taken` counts the lines each out-queue has
  // handed to the merge in progress.
  std::vector<std::uint8_t> pending;
  std::size_t pend_head = 0, pend_size = 0;
  std::vector<std::size_t> taken;
  std::string outbuf;
  /// The ingest clock at which waiting lines go out whatever their
  /// size: kFlushAgeNs after the last write.
  std::uint64_t age_flush_ns = 0;

  void worker_loop(std::size_t shard);
  void watchdog_loop();
  void sampler_loop();
  void sample_health();
  std::string render_prom();
  /// Writes one full metrics snapshot line. The router's flow-count lines
  /// and the sampler's wall-clock lines share the stream; each line is a
  /// complete snapshot, so readers need no ordering between the two
  /// cadences, and the lock keeps each line whole.
  void write_metrics_line() {
    std::string line = registry->snapshot(false).dump();
    line += '\n';
    const std::lock_guard<std::mutex> lock(metrics_mu);
    metrics_out->write(line.data(), static_cast<std::streamsize>(line.size()));
    metrics_out->flush();
  }
  /// Stops the threads run() started and waits for them. Idempotent.
  void stop_threads() {
    stop.store(true, std::memory_order_release);
    for (auto& w : workers)
      if (w.joinable()) w.join();
    if (watchdog.joinable()) watchdog.join();
    if (sampler.joinable()) sampler.join();
  }

  // Router stages, in the order a flow meets them: ingest, scatter,
  // merge and write, checkpoint, then drain and report.
  bool ingest(Flow& flow);
  void scatter(const Flow& flow);
  void end_shed_episode(double time) {
    if (!shedding) return;
    shedding = false;
    options.obs.emit(robustness_event(obs::EventKind::kShedEnd, time, 0,
                                      shed_flows->value() -
                                          shed_episode_base));
  }
  void throw_if_stalled() {
    if (!stalled.load(std::memory_order_acquire)) return;
    // The stall event rides the ring from here (router thread), not from
    // the watchdog: TraceRing is single-writer.
    options.obs.emit(robustness_event(
        obs::EventKind::kStall, last_time,
        stall_shard.load(std::memory_order_relaxed)));
    throw ServeStallError(stall_diag);
  }
  void merge();
  void write_decisions(Write when);
  std::vector<std::string> sync_parse_errors();
  void write_metrics_snapshot() {
    if (metrics_out == nullptr) return;
    const obs::Span span(router_spans, "metrics_snapshot");
    sync_parse_errors();
    write_metrics_line();
  }
  void quiesce_shards();
  void write_checkpoint(double at_time);
  /// Global host h's record, read in place from its shard's engine.
  const quarantine::HostRecord& record(std::uint32_t h) const {
    return engines[owner_of(h)]->record(local_of(h));
  }
  /// The engines' total quarantine events.
  std::uint64_t quarantine_events() const {
    std::uint64_t events = 0;
    for (const auto& engine : engines)
      if (engine != nullptr) events += engine->quarantine_events();
    return events;
  }
  ServeSummary drain(bool exhausted);
};

ServeServer::Impl::Impl(const ServeOptions& opts,
                        obs::MetricsRegistry& metrics_registry)
    : options(opts), registry(&metrics_registry) {
  if (options.shards == 0 || options.shards > 256)
    throw std::invalid_argument("ServeServer: shards must be in [1, 256]");
  if (options.num_hosts == 0)
    throw std::invalid_argument("ServeServer: num_hosts must be > 0");
  if (options.stall_timeout_seconds < 0.0)
    throw std::invalid_argument("ServeServer: stall timeout must be >= 0");
  if (options.checkpoint_interval_flows > 0 &&
      options.checkpoint_path.empty())
    throw std::invalid_argument(
        "ServeServer: checkpoint interval needs a checkpoint path");
  options.quarantine.validate();

  flows_ingested = &registry->counter("serve.flows_ingested");
  flows_decided = &registry->counter("serve.flows_decided");
  parse_errors = &registry->counter("serve.parse_errors");
  time_regressions = &registry->counter("serve.time_regressions");
  // Overload/stall accounting depends on machine timing, never on the
  // flow stream — wall-clock class keeps deterministic snapshots
  // byte-stable.
  const auto wall_clock = [this](const char* name) {
    return &registry->counter(name, obs::Determinism::kWallClock);
  };
  shed_flows = wall_clock("serve.shed_flows");
  router_stalls = wall_clock("serve.router_stalls");
  worker_stalls = wall_clock("serve.worker_stalls");
  sink_retries = wall_clock("serve.sink_retries");
  slo_breaches = wall_clock("serve.slo_breaches");
  latency = &registry->histogram("serve.decision_latency_ns",
                                 obs::Determinism::kWallClock);
  if (options.slo_ms < 0.0)
    throw std::invalid_argument("ServeServer: slo_ms must be >= 0");
  slo_ns = static_cast<std::uint64_t>(options.slo_ms * 1e6);

  // Hash-partition blocks across shards; shard-local ids are assigned in
  // ascending global host order, so gathering records back in global
  // order needs only the block map. Under the shared bitmap this keeps
  // every estimator block whole on one shard, in global block order (a
  // partial block only at the global tail), so each shard-local
  // CompactEstimatorStore sees exactly the same block-local streams as
  // a single engine would.
  const std::size_t shards = options.shards;
  compact = options.quarantine.estimator_backend ==
            quarantine::EstimatorBackend::kSharedBitmap;
  if (compact) block_hosts = options.quarantine.compact.block_hosts;
  const std::uint32_t num_blocks =
      (options.num_hosts - 1) / block_hosts + 1;
  block_owner.resize(num_blocks);
  block_local.resize(num_blocks);
  owned_count.assign(shards, 0);
  std::vector<std::uint32_t> blocks_owned(shards, 0);
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    const auto s = static_cast<std::size_t>(mix64(std::uint64_t{b} + 1) %
                                            shards);
    block_owner[b] = static_cast<std::uint8_t>(s);
    block_local[b] = blocks_owned[s]++;
    owned_count[s] +=
        std::min(block_hosts, options.num_hosts - b * block_hosts);
  }
  label_time.assign(options.num_hosts, -1.0);
  progress = std::make_unique<ShardProgress[]>(shards);

  // Per-shard health gauges are registered only when something will
  // sample them (the ms-cadence sampler, the prom file, or the HTTP
  // listener) — registering unconditionally would change full-snapshot
  // bytes for every existing run. All kWallClock: they reflect machine
  // timing, never the flow stream.
  health_enabled = options.metrics_interval_ms > 0 ||
                   !options.prom_path.empty() || !options.metrics_addr.empty();
  if (health_enabled) {
    for (std::size_t s = 0; s < shards; ++s) {
      const std::vector<std::pair<std::string, std::string>> labels{
          {"shard", std::to_string(s)}};
      queue_depth_g.push_back(
          &registry->gauge(obs::labeled("serve.shard_queue_depth", labels)));
      backlog_g.push_back(
          &registry->gauge(obs::labeled("serve.shard_backlog", labels)));
      decided_g.push_back(
          &registry->gauge(obs::labeled("serve.shard_decided", labels)));
    }
    rss_g = &registry->gauge("serve.rss_bytes");
  }
  worker_spans.assign(shards, nullptr);
  if (options.profiler != nullptr) {
    router_spans = options.profiler->track("serve/router");
    for (std::size_t s = 0; s < shards; ++s)
      worker_spans[s] =
          options.profiler->track("serve/shard" + std::to_string(s));
  }

  obs::Sink engine_sink;
  engine_sink.metrics = registry;
  for (std::size_t s = 0; s < shards; ++s) {
    in_queues.push_back(
        std::make_unique<SpscQueue<Flow>>(options.queue_capacity));
    out_queues.push_back(
        std::make_unique<SpscQueue<DecisionLine>>(options.queue_capacity));
    if (owned_count[s] > 0) {
      engines.push_back(std::make_unique<quarantine::QuarantineEngine>(
          owned_count[s], options.quarantine));
      engines.back()->set_obs(engine_sink);
    } else {
      engines.push_back(nullptr);
    }
  }

  if (options.restore != nullptr) {
    const CheckpointState& ck = *options.restore;
    if (ck.num_hosts != options.num_hosts)
      throw std::invalid_argument(
          "ServeServer: restore num_hosts mismatch (checkpoint has " +
          std::to_string(ck.num_hosts) + ", options say " +
          std::to_string(options.num_hosts) + ")");
    if (ck.config.dump() !=
        quarantine::config_to_json(options.quarantine).dump())
      throw std::invalid_argument(
          "ServeServer: restore quarantine config mismatch — resuming "
          "under different thresholds would silently diverge");
    label_time = ck.label_time;
    // Block pools first: compact host windows restore relative to
    // their block's window.
    if (compact) {
      if (!ck.store)
        throw std::invalid_argument(
            "ServeServer: restore checkpoint has no estimator block "
            "pools but the configured backend is shared_bitmap");
      const quarantine::StoreArrays& store = *ck.store;
      const std::size_t num_blocks = block_owner.size();
      const std::size_t wpb =
          engines[block_owner[0]]->compact_store()->words_per_block();
      const auto reject = [](const std::string& what) {
        throw std::invalid_argument(
            "ServeServer: restore estimator store: " + what);
      };
      if (store.window.size() != num_blocks) reject("block count mismatch");
      if (store.words_per_block != wpb)
        reject("words_per_block mismatch (pool geometry)");
      if (store.pool.size() != num_blocks * wpb)
        reject("window/pool length mismatch");
      for (std::size_t b = 0; b < num_blocks; ++b) {
        try {
          quarantine::scatter_block(*engines[block_owner[b]]->compact_store(),
                                    block_local[b], store, b);
        } catch (const std::invalid_argument& e) {
          reject(e.what());
        }
      }
    } else if (ck.store) {
      throw std::invalid_argument(
          "ServeServer: restore checkpoint carries estimator block "
          "pools but the configured backend is exact");
    }
    for (std::uint32_t h = 0; h < options.num_hosts; ++h)
      engines[owner_of(h)]->restore_host(
          local_of(h), ck.hosts.records[h], ck.hosts.detectors[h]);
    for (auto& engine : engines)
      if (engine != nullptr) {
        engine->add_quarantine_events(ck.quarantine_events);
        break;
      }
    // Continue the checkpoint's clock, sequence and counts.
    last_time = ck.last_time;
    seq = ck.flows_ingested;
    flows_ingested->add(ck.flows_ingested);
    flows_decided->add(ck.flows_ingested - ck.shed_flows);
    parse_errors->add(ck.parse_errors);
    time_regressions->add(ck.time_regressions);
    shed_flows->add(ck.shed_flows);
    options.obs.emit(robustness_event(obs::EventKind::kCheckpointRestore,
                                      ck.last_time, 0, ck.flows_ingested));
  }

  // The listener binds here, not in run(), so tests (and callers using
  // an ephemeral port) can read metrics_port() before the run starts.
  if (!options.metrics_addr.empty())
    listener = std::make_unique<obs::PromHttpListener>(
        options.metrics_addr, [this] { return render_prom(); });
}

ServeServer::ServeServer(const ServeOptions& options)
    : registry_(std::make_unique<obs::MetricsRegistry>()),
      impl_(std::make_unique<Impl>(options, *registry_)) {}

ServeServer::~ServeServer() = default;

std::uint16_t ServeServer::metrics_port() const noexcept {
  return impl_->listener != nullptr ? impl_->listener->port() : 0;
}

void ServeServer::Impl::worker_loop(std::size_t shard) {
  SpscQueue<Flow>& in = *in_queues[shard];
  SpscQueue<DecisionLine>& out = *out_queues[shard];
  quarantine::QuarantineEngine* engine = engines[shard].get();
  ShardProgress& prog = progress[shard];
  const bool throttling = options.quarantine.policy.treatment ==
                          quarantine::Treatment::kThrottle;
  const std::uint64_t slow_us =
      Failpoints::global().active()
          ? Failpoints::global().slow_shard_micros(shard)
          : 0;
  obs::SpanBuffer* spans = worker_spans[shard];
  Flow batch[kWorkerBatch];
  // One batch's latency samples, bucketed as obs::Histogram does (by
  // bit width) and folded into the shared histogram once per batch.
  std::array<std::uint64_t, obs::Histogram::kBuckets> latency_counts{};
  DecisionLine line{};
  // An idle shard backs off to 1 ms sleeps instead of spinning on its
  // empty in-queue, so a quiet input costs no cores.
  Backoff idle;
  while (true) {
    if (stop.load(std::memory_order_relaxed)) return;
    const std::size_t n = in.pop_batch(batch, kWorkerBatch);
    if (n == 0) {
      idle.pause();
      continue;
    }
    idle = Backoff{};
    // One span per popped batch, not per flow: batch granularity keeps
    // the profiler's cost well under the 1.05x gate while still showing
    // where worker time goes.
    obs::Span batch_span(spans, "worker_batch");
    // Latency samples take one clock read per batch, as a read waits for
    // the engine's outstanding loads: flows [sampled, end) take theirs
    // when the batch is decided, or before a wait that follows their
    // decisions (a full out-queue, the slow-shard failpoint), so no
    // flow's sample counts a wait that came after it was decided.
    latency_counts.fill(0);
    std::uint64_t latency_sum = 0;
    std::uint64_t breaches = 0;
    std::size_t sampled = 0;
    const auto sample_to = [&](std::size_t end) {
      if (sampled == end) return;
      const std::uint64_t decided_ns = obs::span_clock_ns();
      for (; sampled < end; ++sampled) {
        const std::uint64_t lat_ns = decided_ns - batch[sampled].ingest_ns;
        ++latency_counts[std::bit_width(lat_ns)];
        latency_sum += lat_ns;
        if (slo_ns > 0 && lat_ns > slo_ns) ++breaches;
      }
    };
    for (std::size_t i = 0; i < n; ++i) {
      const Flow& f = batch[i];
      if (slow_us != 0) {
        sample_to(i);
        interruptible_sleep_us(slow_us, stop);
        if (stop.load(std::memory_order_relaxed)) return;
      }
      engine->advance_to(f.time);
      const std::uint32_t local = local_of(f.host);
      if (f.labeled_worm && label_time[f.host] < 0.0)
        label_time[f.host] = f.time;
      const bool was_quarantined = engine->quarantined(local);
      engine->observe(local, f.dest, f.time, f.failed);
      if (decisions != nullptr) {
        Decision d;
        d.seq = f.seq;
        d.time = f.time;
        d.host = f.host;
        d.dest = f.dest;
        d.failed = f.failed;
        d.action = static_cast<std::uint8_t>(
            was_quarantined ? (throttling ? Action::kThrottle : Action::kDrop)
                            : Action::kAllow);
        d.state = static_cast<std::uint8_t>(engine->state(local));
        line.size = static_cast<std::uint8_t>(
            format_decision_line(d, line.bytes));
        if (!out.try_push(line)) {
          // Full decision queue: bounded backoff instead of an
          // unbounded spin, counted once per stall episode.
          sample_to(i + 1);
          worker_stalls->add();
          Backoff backoff;
          do {
            if (stop.load(std::memory_order_relaxed)) return;
            backoff.pause();
          } while (!out.try_push(line));
        }
      }
    }
    sample_to(n);
    latency->record_counts(latency_counts, latency_sum);
    if (breaches > 0) slo_breaches->add(breaches);
    prog.decided.store(prog.decided.load(std::memory_order_relaxed) + n,
                       std::memory_order_release);
    flows_decided->add(n);
  }
}

void ServeServer::Impl::watchdog_loop() {
  const double timeout = options.stall_timeout_seconds;
  const auto poll = std::chrono::duration<double>(
      std::clamp(timeout / 8.0, 0.001, 0.05));
  const std::size_t shards = options.shards;
  std::vector<std::uint64_t> last_decided(shards, 0);
  std::vector<std::uint64_t> last_progress(shards, obs::span_clock_ns());
  while (!stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(poll);
    const std::uint64_t now = obs::span_clock_ns();
    for (std::size_t s = 0; s < shards; ++s) {
      const std::uint64_t pushed =
          progress[s].pushed.load(std::memory_order_acquire);
      const std::uint64_t decided =
          progress[s].decided.load(std::memory_order_acquire);
      if (decided != last_decided[s] || decided >= pushed) {
        last_decided[s] = decided;
        last_progress[s] = now;
        continue;
      }
      const double quiet = static_cast<double>(now - last_progress[s]) * 1e-9;
      if (quiet < timeout) continue;
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "serve: stall watchdog: shard %zu made no progress for "
                    "%.2f s (pushed=%llu decided=%llu backlog=%llu)",
                    s, quiet, static_cast<unsigned long long>(pushed),
                    static_cast<unsigned long long>(decided),
                    static_cast<unsigned long long>(pushed - decided));
      stall_diag.assign(buf);
      stall_shard.store(static_cast<std::uint32_t>(s),
                        std::memory_order_relaxed);
      stalled.store(true, std::memory_order_release);
      return;
    }
  }
}

void ServeServer::Impl::sample_health() {
  if (!health_enabled) return;
  for (std::size_t s = 0; s < options.shards; ++s) {
    queue_depth_g[s]->set(
        static_cast<double>(in_queues[s]->size_approx()));
    const std::uint64_t pushed =
        progress[s].pushed.load(std::memory_order_acquire);
    const std::uint64_t decided =
        progress[s].decided.load(std::memory_order_acquire);
    backlog_g[s]->set(
        static_cast<double>(pushed >= decided ? pushed - decided : 0));
    decided_g[s]->set(static_cast<double>(decided));
  }
  rss_g->set(static_cast<double>(read_rss_bytes()));
}

std::string ServeServer::Impl::render_prom() {
  // Called from the listener thread too: gauge stores are atomic and
  // snapshot() locks the registry, so a scrape mid-run is safe.
  sample_health();
  return obs::prometheus_render(registry->snapshot(false));
}

void ServeServer::Impl::sampler_loop() {
  const std::uint64_t interval_ms =
      options.metrics_interval_ms > 0 ? options.metrics_interval_ms : 1000;
  std::uint64_t next_ns = obs::span_clock_ns() + interval_ms * 1000000;
  while (!stop.load(std::memory_order_acquire)) {
    // Sleep in short slices so shutdown never waits a whole interval.
    std::this_thread::sleep_for(std::chrono::milliseconds(
        std::min<std::uint64_t>(interval_ms, 10)));
    if (obs::span_clock_ns() < next_ns) continue;
    next_ns = obs::span_clock_ns() + interval_ms * 1000000;
    sample_health();
    // parse_errors may lag here — syncing it requires the source, which
    // is router-owned.
    if (options.metrics_interval_ms > 0 && metrics_out != nullptr)
      write_metrics_line();
    if (!options.prom_path.empty()) {
      // A failed rewrite (a full disk, say) keeps the last good file
      // and is retried at the next tick; run()'s final rewrite reports
      // one that persists.
      try {
        replace_file(options.prom_path, render_prom());
      } catch (const std::exception&) {
      }
    }
  }
}

/// Takes the next flow, clamps its time to the router clock, numbers it
/// and stamps its ingest time; false at the end of the stream.
bool ServeServer::Impl::ingest(Flow& flow) {
  if (!source->next(flow)) return false;
  // Detectors assume non-decreasing time per host; enforce it
  // globally at the router so every shard count sees the same clock.
  if (flow.time < last_time) {
    flow.time = last_time;
    time_regressions->add();
  } else {
    last_time = flow.time;
  }
  flow.seq = ++seq;
  flow.ingest_ns = obs::span_clock_ns();
  flows_ingested->add();
  return true;
}

/// Pushes the flow to its host's shard. A full in-queue first gets a
/// merge, which frees out-queue slots its worker may wait on; then the
/// overload policy sheds the flow or waits.
void ServeServer::Impl::scatter(const Flow& flow) {
  throw_if_stalled();
  const std::size_t s = owner_of(flow.host);
  if (!in_queues[s]->try_push(flow)) {
    merge();
    if (!in_queues[s]->try_push(flow)) {
      if (options.overload == OverloadPolicy::kShed) {
        if (!shedding) {
          shedding = true;
          shed_episode_base = shed_flows->value();
          options.obs.emit(
              robustness_event(obs::EventKind::kShedStart, flow.time));
        }
        shed_flows->add();
        return;
      }
      router_stalls->add();
      Backoff backoff;
      do {
        throw_if_stalled();
        backoff.pause();
        merge();
      } while (!in_queues[s]->try_push(flow));
    }
  }
  end_shed_episode(flow.time);
  ShardProgress& prog = progress[s];
  prog.pushed.store(prog.pushed.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  if (decisions == nullptr) return;
  pending[(pend_head + pend_size) & (pending.size() - 1)] =
      static_cast<std::uint8_t>(s);
  ++pend_size;
  // Merge only when it can matter, every kMergeStride pending flows:
  // while those lines, at their longest, could complete the next 64 KiB
  // write (so no line reaches the sink more than kMergeStride flows
  // later than with a merge per flow), or while they could fill an
  // out-queue and stall its worker.
  if (pend_size % kMergeStride == 0 &&
      (outbuf.size() + pend_size * kMaxDecisionLineBytes >= kFlushBytes ||
       pend_size >= out_queues[s]->capacity()))
    merge();
}

/// Splices every decision line that is ready, in seq order, into
/// outbuf — writing each time it reaches kFlushBytes — then frees the
/// spliced out-queue slots.
void ServeServer::Impl::merge() {
  while (pend_size > 0) {
    const std::uint8_t s = pending[pend_head & (pending.size() - 1)];
    const DecisionLine* line = out_queues[s]->peek(taken[s]);
    if (line == nullptr) break;
    ++taken[s];
    ++pend_head;
    --pend_size;
    outbuf.append(line->bytes, line->size);
    write_decisions(Write::kFull);
  }
  for (std::size_t s = 0; s < options.shards; ++s) {
    if (taken[s] == 0) continue;
    out_queues[s]->consume(taken[s]);
    taken[s] = 0;
  }
}

/// Hands outbuf to the sink and flushes the stream, so `std::cout` and
/// `--out` files see the bytes at once.
void ServeServer::Impl::write_decisions(Write when) {
  if (when != Write::kFull) merge();
  if (outbuf.empty() || (when == Write::kFull && outbuf.size() < kFlushBytes))
    return;
  // Transient sink failure: keep the bytes buffered and retry at the
  // next write. The emitted stream stays byte-identical, just later.
  // The final flush may not fail — it absorbs any pending injected
  // errors as retries so no bytes are lost.
  while (Failpoints::global().active() &&
         Failpoints::global().consume_sink_error()) {
    sink_retries->add();
    options.obs.emit(robustness_event(obs::EventKind::kSinkRetry, last_time,
                                      0, sink_retries->value()));
    if (when != Write::kFinal) return;
  }
  decisions->write(outbuf.data(), static_cast<std::streamsize>(outbuf.size()));
  decisions->flush();
  outbuf.clear();
  age_flush_ns = obs::span_clock_ns() + kFlushAgeNs;
}

/// Brings serve.parse_errors up to date with the source, and returns
/// the samples to report: the restored checkpoint's, then the source's.
std::vector<std::string> ServeServer::Impl::sync_parse_errors() {
  static const CheckpointState kNoRestore;
  const CheckpointState& base =
      options.restore != nullptr ? *options.restore : kNoRestore;
  parse_errors->add(base.parse_errors + source->parse_errors() -
                    parse_errors->value());
  std::vector<std::string> samples = base.parse_error_samples;
  for (const std::string& line : source->parse_error_samples()) {
    if (samples.size() >= kMaxSummarySamples) break;
    samples.push_back(line);
  }
  return samples;
}

/// Waits until every shard has decided everything pushed to it; the
/// merge keeps draining so workers never wedge on a full out-queue,
/// and a tripped watchdog aborts the wait.
void ServeServer::Impl::quiesce_shards() {
  for (std::size_t s = 0; s < options.shards; ++s) {
    Backoff backoff;
    while (progress[s].decided.load(std::memory_order_acquire) <
           progress[s].pushed.load(std::memory_order_relaxed)) {
      merge();
      throw_if_stalled();
      backoff.pause();
    }
  }
}

/// Writes the full pipeline state, gathered in global host order so
/// checkpoint bytes are identical at any shard count.
void ServeServer::Impl::write_checkpoint(double at_time) {
  const obs::Span span(router_spans, "checkpoint");
  quiesce_shards();
  // Normalize: apply releases due by the checkpoint clock so the
  // serialized records are independent of each shard's own advance
  // schedule (a release is popped lazily, at the owning shard's next
  // flow — semantically identical, but byte-different until applied).
  for (auto& engine : engines)
    if (engine != nullptr) engine->advance_to(at_time);
  CheckpointState ck;
  ck.parse_error_samples = sync_parse_errors();
  ck.num_hosts = options.num_hosts;
  ck.flows_ingested = seq;
  ck.last_time = at_time;
  ck.time_regressions = time_regressions->value();
  ck.parse_errors = parse_errors->value();
  ck.shed_flows = shed_flows->value();
  ck.quarantine_events = quarantine_events();
  ck.config = quarantine::config_to_json(options.quarantine);
  ck.label_time = label_time;
  ck.hosts.records.resize(options.num_hosts);
  ck.hosts.detectors.resize(options.num_hosts);
  for (std::uint32_t h = 0; h < options.num_hosts; ++h) {
    ck.hosts.records[h] = record(h);
    ck.hosts.detectors[h] = engines[owner_of(h)]->detector_state(local_of(h));
  }
  // Shared-bitmap block pools, gathered in *global* block order so
  // checkpoint bytes stay shard-count independent (robustness tests
  // assert this).
  if (compact) {
    ck.store.emplace();
    for (std::size_t b = 0; b < block_owner.size(); ++b)
      quarantine::gather_block(*ck.store,
                               *engines[block_owner[b]]->compact_store(),
                               block_local[b]);
  }
  write_checkpoint_file(options.checkpoint_path, ck);
  options.obs.emit(robustness_event(obs::EventKind::kCheckpointWrite,
                                    at_time, 0, seq));
}

/// Graceful drain (stall-checked — never an unbounded hang), then the
/// final checkpoint and the summary.
ServeSummary ServeServer::Impl::drain(bool exhausted) {
  double end_time = last_time;
  if (exhausted) end_time = std::max(end_time, source->end_time_hint());
  quiesce_shards();
  // Every pushed flow is decided, so every pending line is in its
  // out-queue: the write's one merge takes them all. They go out now,
  // not behind the final checkpoint and report (tens of ms over 2^20
  // hosts); the summary line follows in a write of its own.
  write_decisions(Write::kFinal);
  // The sampler stops before the final prom/metrics writes below, so
  // the metrics stream has a single writer again and the final prom
  // file is the last one renamed into place.
  stop_threads();
  // Apply releases pending at the stream's end, so the gathered state
  // equals a quiesced mid-run checkpoint taken at the same flow count.
  for (auto& engine : engines)
    if (engine != nullptr) engine->advance_to(end_time);
  end_shed_episode(end_time);
  if (!options.checkpoint_path.empty()) write_checkpoint(end_time);

  ServeSummary summary;
  {
    // The records are read in global host order, in place: the float
    // accumulation order of a single engine.
    const obs::Span span(router_spans, "gather_report");
    summary.report = quarantine::report_from_records(
        [this](std::size_t h) -> const quarantine::HostRecord& {
          return record(h);
        },
        label_time, end_time, quarantine_events());
  }
  summary.parse_error_samples = sync_parse_errors();
  summary.flows_ingested = seq;
  summary.flows_decided = flows_decided->value();
  summary.parse_errors = parse_errors->value();
  summary.time_regressions = time_regressions->value();
  summary.shed_flows = shed_flows->value();
  summary.degraded = summary.shed_flows > 0;
  summary.end_time = end_time;
  summary.interrupted = !exhausted;
  summary.wall_seconds =
      static_cast<double>(obs::span_clock_ns() - t_start) * 1e-9;
  summary.flows_per_sec =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.flows_ingested) / summary.wall_seconds
          : 0.0;
  summary.latency_p50_ns = obs::histogram_quantile(*latency, 0.50);
  summary.latency_p90_ns = obs::histogram_quantile(*latency, 0.90);
  summary.latency_p99_ns = obs::histogram_quantile(*latency, 0.99);
  summary.latency_p999_ns = obs::histogram_quantile(*latency, 0.999);
  summary.slo_ms = options.slo_ms;
  summary.slo_breaches = slo_breaches->value();
  summary.slo_breached = summary.slo_breaches > 0;
  registry->gauge("serve.flows_per_sec").set(summary.flows_per_sec);

  if (decisions != nullptr) {
    outbuf += summary.to_json().dump();
    outbuf += '\n';
    write_decisions(Write::kFinal);
  }
  // Final health sample + prom render so the last snapshot/file reflect
  // the drained pipeline (zero queues, final counters).
  sample_health();
  if (!options.prom_path.empty())
    replace_file(options.prom_path, render_prom());
  write_metrics_snapshot();
  return summary;
}

ServeSummary ServeServer::run(FlowSource& source, std::ostream* decisions,
                              std::ostream* metrics) {
  Impl& im = *impl_;
  if (im.ran) throw std::logic_error("ServeServer: one run() per server");
  im.ran = true;
  const ServeOptions& opt = im.options;
  if (opt.stop_after_flows > 0) install_stop_handlers();
  // On any exit — normal return (threads already stopped) or exception
  // (stall, checkpoint IO failure) — make sure no thread outlives run().
  struct TeardownGuard {
    Impl& im;
    ~TeardownGuard() { im.stop_threads(); }
  } teardown_guard{im};
  im.source = &source;
  im.decisions = decisions;
  im.metrics_out = metrics;
  // Outstanding flows are bounded by the queues, so a fixed ring
  // suffices: every in-flight flow occupies an in-queue slot, a
  // worker-batch slot, or an out-queue slot.
  im.pending.resize(std::bit_ceil(
      opt.shards * (im.in_queues[0]->capacity() +
                    im.out_queues[0]->capacity() + kWorkerBatch + 2)));
  im.taken.assign(opt.shards, 0);
  for (std::size_t s = 0; s < opt.shards; ++s)
    im.workers.emplace_back([&im, s] { im.worker_loop(s); });
  if (opt.stall_timeout_seconds > 0.0)
    im.watchdog = std::thread([&im] { im.watchdog_loop(); });
  if (opt.metrics_interval_ms > 0 || !opt.prom_path.empty())
    im.sampler = std::thread([&im] { im.sampler_loop(); });
  im.t_start = obs::span_clock_ns();
  im.age_flush_ns = im.t_start + kFlushAgeNs;

  bool exhausted = false;
  Flow flow;
  while (!stop_requested()) {
    // Before the router waits on a quiet source, every decision it
    // holds goes out: the shards finish their flows and the merge
    // writes all of their lines.
    if ((im.pend_size > 0 || !im.outbuf.empty()) && source.would_block()) {
      im.quiesce_shards();
      im.write_decisions(Write::kNow);
    }
    if (!im.ingest(flow)) {
      exhausted = true;
      break;
    }
    im.scatter(flow);
    // While flows arrive, no ready line waits more than kFlushAgeNs
    // for the 64 KiB write: this covers sources that wait inside next()
    // without saying so, such as an open-loop generator.
    if (decisions != nullptr && flow.ingest_ns >= im.age_flush_ns)
      im.write_decisions(Write::kNow);
    if (opt.metrics_interval_flows > 0 &&
        im.seq % opt.metrics_interval_flows == 0)
      im.write_metrics_snapshot();
    if (opt.checkpoint_interval_flows > 0 &&
        im.seq % opt.checkpoint_interval_flows == 0)
      im.write_checkpoint(im.last_time);
    if (opt.stop_after_flows > 0 && im.seq == opt.stop_after_flows)
      std::raise(SIGTERM);
  }
  return im.drain(exhausted);
}

}  // namespace dq::serve
