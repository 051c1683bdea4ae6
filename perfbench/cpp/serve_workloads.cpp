// serve_ndjson and serve_paced: the `dqctl serve --input FILE` path.
//
// The benchmark writes a seeded NDJSON flow file, then streams it
// through NdjsonFlowSource over a std::ifstream into ServeServer::run.
// Two wrappers sit at the program's I/O boundary and nowhere else:
//   * BenchSource, a FlowSource decorator around the NDJSON source. It
//     stamps each flow's due time — when it was read (closed loop) or
//     when the open-loop schedule offered it (paced) — and, in traced
//     runs, times every next() call and the router's work between
//     calls.
//   * CountingSink, an unbuffered std::streambuf the decision stream
//     writes into. It hashes and counts the bytes and maps the k-th
//     line it receives to flow seq k, so each flow's ingest→written
//     latency is (time its line reached the sink) − (its due time).
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "campaign/json.hpp"
#include "harness.hpp"
#include "quarantine/engine.hpp"
#include "serve/checkpoint.hpp"
#include "serve/flow.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"

namespace dqb {
namespace {

using dq::serve::Flow;

std::uint64_t steady_ns() { return now_ns(); }

struct ServeSpec {
  const char* name;
  std::uint32_t hosts;
  bool shared_bitmap;
  std::uint64_t flows;             ///< flows in the input file
  double rate;                     ///< offered flows/s; 0 = closed loop
  std::uint64_t checkpoint_every;  ///< 0 = no checkpoints
  std::size_t shards;
};

constexpr ServeSpec kNdjson{"serve_ndjson", 1u << 20, true, 1'000'000, 0.0,
                            0, 2};
constexpr ServeSpec kPaced{"serve_paced", 1u << 16, false, 1'000'000,
                           200'000.0, 200'000, 2};

/// `dqctl serve`'s default detector and policy settings.
dq::quarantine::QuarantineConfig serve_config(bool shared_bitmap) {
  dq::quarantine::QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 5.0;
  c.detector.contact_rate_threshold = 25.0;
  c.detector.distinct_dest_threshold = 20.0;
  c.detector.failure_ratio_threshold = 0.9;
  c.detector.failure_min_attempts = 10;
  c.policy.strikes_to_quarantine = 1;
  c.policy.base_period = 300.0;
  c.policy.escalation = 4.0;
  c.policy.max_period = 3600.0;
  if (shared_bitmap)
    c.estimator_backend = dq::quarantine::EstimatorBackend::kSharedBitmap;
  c.compact.block_hosts = 256;
  c.compact.pool_bits_per_host = 6;
  c.compact.virtual_bits = 64;
  return c;
}

/// Writes the seeded synthetic stream in the serve input schema.
void write_flow_file(const std::string& path, const ServeSpec& spec,
                     std::uint64_t seed) {
  dq::serve::SyntheticConfig cfg;
  cfg.flows = spec.flows;
  cfg.hosts = spec.hosts;
  cfg.seed = seed;
  dq::serve::SyntheticFlowSource src(cfg);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::string buf;
  Flow f;
  while (src.next(f)) {
    buf += "{\"t\":";
    buf += dq::campaign::format_double(f.time);
    buf += ",\"host\":";
    buf += std::to_string(f.host);
    buf += ",\"dest\":";
    buf += std::to_string(f.dest);
    buf += f.failed ? ",\"failed\":true" : ",\"failed\":false";
    buf += f.labeled_worm ? ",\"worm\":true}\n" : ",\"worm\":false}\n";
    if (buf.size() >= (1u << 20)) {
      out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("short write to " + path);
}

/// Summed duration of many calls on one thread.
struct Agg {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint64_t total = 0;
  std::uint64_t count = 0;

  void add(std::uint64_t start, std::uint64_t end) noexcept {
    if (count++ == 0) first = start;
    last = end;
    total += end - start;
  }
  SpanRec span(const std::string& name, const std::string& track,
               std::int64_t parent, std::uint32_t run) const {
    SpanRec s;
    s.name = name;
    s.track = track;
    s.start_ns = first;
    s.end_ns = last;
    s.dur_ns = total;
    s.count = count;
    s.parent = parent;
    s.run = run;
    return s;
  }
};

class BenchSource final : public dq::serve::FlowSource {
 public:
  BenchSource(dq::serve::FlowSource& inner, std::vector<std::uint64_t>& due,
              double rate, bool timed)
      : inner_(inner),
        due_(due),
        ns_per_flow_(rate > 0.0 ? 1e9 / rate : 0.0),
        timed_(timed) {}

  bool next(Flow& out) override {
    const std::uint64_t k = returned_;
    std::uint64_t t = (timed_ || paced()) ? now_ns() : 0;
    if (timed_ && last_exit_ != 0) between.add(last_exit_, t);
    std::uint64_t due = 0;
    if (paced()) {
      if (start_ == 0) start_ = t;
      due = start_ + static_cast<std::uint64_t>(static_cast<double>(k) *
                                                ns_per_flow_);
      if (t < due) {
        const std::uint64_t wait_start = t;
        do {
          t = now_ns();
        } while (t < due);
        late_ms.push_back(static_cast<double>(t - due) * 1e-6);
        if (timed_) pace.add(wait_start, t);
      } else {
        ++behind;
      }
    }
    const bool got = inner_.next(out);
    const std::uint64_t t2 = now_ns();
    if (timed_) source.add(t, t2);
    last_exit_ = t2;
    if (!got) {
      if (exhausted_ns == 0) exhausted_ns = t2;
      return false;
    }
    if (k >= due_.size()) due_.resize(k + 1);
    due_[k] = paced() ? due : t2;
    ++returned_;
    return true;
  }
  std::uint64_t parse_errors() const noexcept override {
    return inner_.parse_errors();
  }
  const std::vector<std::string>& parse_error_samples()
      const noexcept override {
    return inner_.parse_error_samples();
  }
  double end_time_hint() const noexcept override {
    return inner_.end_time_hint();
  }

  bool paced() const noexcept { return ns_per_flow_ > 0.0; }

  Agg source;   ///< time inside the NDJSON source's next()
  Agg pace;     ///< open-loop waits for the next due time
  Agg between;  ///< router work between consecutive next() calls
  std::uint64_t exhausted_ns = 0;
  std::uint64_t behind = 0;     ///< flows already due when asked for
  std::vector<double> late_ms;  ///< overshoot of flows offered on time

 private:
  dq::serve::FlowSource& inner_;
  std::vector<std::uint64_t>& due_;
  double ns_per_flow_;
  bool timed_;
  std::uint64_t start_ = 0;
  std::uint64_t returned_ = 0;
  std::uint64_t last_exit_ = 0;
};

class CountingSink final : public std::streambuf {
 public:
  using Clock = std::uint64_t (*)();

  /// `clock` is replaceable so the self-check can script write times.
  CountingSink(const std::vector<std::uint64_t>& due, std::uint64_t flows,
               std::vector<double>* latency_ms, const BenchSource* source,
               bool timed, Clock clock = &steady_ns)
      : due_(due),
        flows_(flows),
        latency_ms_(latency_ms),
        source_(source),
        timed_(timed),
        clock_(clock) {}

  StreamHash hash;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  Agg write_reading;   ///< writes while the source still had flows
  Agg write_draining;  ///< writes after it was exhausted
  std::uint64_t gap_max_ns = 0;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::uint64_t t = clock_();
    if (last_write_ != 0) gap_max_ns = std::max(gap_max_ns, t - last_write_);
    const auto len = static_cast<std::size_t>(n);
    hash.update(s, len);
    bytes += len;
    const char* p = s;
    const char* end = s + len;
    while (p < end) {
      const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
      if (nl == nullptr) break;
      if (lines < flows_ && latency_ms_ != nullptr)
        latency_ms_->push_back(static_cast<double>(t - due_[lines]) * 1e-6);
      ++lines;
      p = static_cast<const char*>(nl) + 1;
    }
    last_write_ = t;
    if (timed_) {
      const std::uint64_t t2 = clock_();
      (source_->exhausted_ns == 0 ? write_reading : write_draining).add(t, t2);
    }
    return n;
  }
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof()))
      return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

 private:
  const std::vector<std::uint64_t>& due_;
  std::uint64_t flows_;
  std::vector<double>* latency_ms_;
  const BenchSource* source_;
  bool timed_;
  Clock clock_;
  std::uint64_t last_write_ = 0;
};

struct Pass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  dq::serve::ServeSummary summary;
  std::uint64_t hash = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  double router_stalls = 0.0;
  double worker_stalls = 0.0;
  // Traced only.
  std::uint32_t run = 0;
  std::uint64_t write_calls = 0;
  double write_gap_max_ms = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t dropped_spans = 0;
  std::vector<double> late_ms;
  std::uint64_t behind = 0;
};

double counter_value(const dq::obs::MetricsRegistry& registry,
                     const std::string& name) {
  const dq::campaign::JsonValue snap = registry.snapshot(false);
  if (const auto* counters = snap.find("counters"))
    if (const auto* v = counters->find(name)) return v->as_number();
  return 0.0;
}

/// One ServeServer::run over the whole flow file.
Pass serve_pass(const ServeSpec& spec, const std::string& input,
                std::size_t shards, double rate,
                const std::string& checkpoint_path,
                std::vector<std::uint64_t>& due,
                std::vector<double>* latency_ms, Tracer* tracer,
                std::uint32_t run) {
  Pass pass;
  const std::uint64_t setup_start = now_ns();
  const bool traced = tracer != nullptr && tracer->enabled();
  dq::serve::ServeOptions options;
  options.shards = shards;
  options.num_hosts = spec.hosts;
  options.quarantine = serve_config(spec.shared_bitmap);
  options.checkpoint_path = checkpoint_path;
  options.checkpoint_interval_flows =
      checkpoint_path.empty() ? 0 : spec.checkpoint_every;
  std::unique_ptr<dq::obs::Profiler> profiler;
  if (traced) {
    profiler = std::make_unique<dq::obs::Profiler>(std::size_t{1} << 21);
    options.profiler = profiler.get();
  }
  dq::serve::ServeServer server(options);
  std::ifstream in(input, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + input);
  dq::serve::NdjsonFlowSource ndjson(in, spec.hosts);
  BenchSource source(ndjson, due, rate, traced);
  if (latency_ms != nullptr) latency_ms->clear();
  CountingSink sink(due, spec.flows, latency_ms, &source, traced);
  std::ostream decisions(&sink);
  pass.setup_s = seconds_since(setup_start);

  const std::uint64_t t0 = now_ns();
  pass.summary = server.run(source, &decisions, nullptr);
  const std::uint64_t t1 = now_ns();
  pass.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  pass.hash = sink.hash.digest();
  pass.bytes = sink.bytes;
  pass.lines = sink.lines;
  pass.router_stalls = counter_value(server.metrics(), "serve.router_stalls");
  pass.worker_stalls = counter_value(server.metrics(), "serve.worker_stalls");
  pass.late_ms = std::move(source.late_ms);
  pass.behind = source.behind;
  if (!traced) return pass;

  // Router timeline: startup, then alternating source calls and the
  // router's work between them, then the drain after the last flow.
  SpanRec root;
  root.name = "serve.run";
  root.track = "router";
  root.start_ns = t0;
  root.end_ns = t1;
  root.dur_ns = t1 - t0;
  root.run = run;
  const std::int64_t run_id = tracer->add(root);
  SpanRec startup = root;
  startup.name = "serve.startup";
  startup.end_ns = source.source.first;
  startup.dur_ns = source.source.first - t0;
  startup.parent = run_id;
  tracer->add(startup);
  tracer->add(source.source.span("serve.source", "router", run_id, run));
  if (source.pace.count > 0)
    tracer->add(source.pace.span("gen.pace_wait", "router", run_id, run));
  const std::int64_t between_id = tracer->add(
      source.between.span("serve.between_calls", "router", run_id, run));
  SpanRec drain = root;
  drain.name = "serve.drain";
  drain.start_ns = source.exhausted_ns;
  drain.dur_ns = t1 - source.exhausted_ns;
  drain.parent = run_id;
  const std::int64_t drain_id = tracer->add(drain);
  tracer->add(sink.write_reading.span("serve.write", "router", between_id, run));
  tracer->add(sink.write_draining.span("serve.write", "router", drain_id, run));
  pass.dropped_spans += tracer->import_buffer(
      *profiler->track("serve/router"), "serve.", "router",
      {between_id, drain_id}, run_id, run);
  // Worker batches (one span per popped batch, up to one per flow when
  // paced) fold into one aggregate span per shard.
  for (std::size_t s = 0; s < shards; ++s) {
    const dq::obs::SpanBuffer& buf =
        *profiler->track("serve/shard" + std::to_string(s));
    Agg busy;
    for (const dq::obs::SpanRecord& r : buf.spans())
      busy.add(r.start_ns, r.start_ns + r.dur_ns);
    if (busy.count > 0)
      tracer->add(busy.span("serve.worker_batch", "shard" + std::to_string(s),
                            run_id, run));
    pass.dropped_spans += buf.dropped();
  }
  for (const dq::obs::PhaseStats& p : profiler->aggregate())
    if (p.name == "checkpoint") pass.checkpoints = p.count;
  pass.run = run;
  pass.write_calls = sink.write_reading.count + sink.write_draining.count;
  pass.write_gap_max_ms = static_cast<double>(sink.gap_max_ns) * 1e-6;
  return pass;
}

/// Per-call costs of the serve layers measured in isolation on the
/// first lines of the input: parse_flow_line, append_decision_line and
/// the engine's advance_to + observe.
struct Isolated {
  double parse_ns = 0.0;
  double format_ns = 0.0;
  double engine_ns = 0.0;
};

Isolated measure_isolated(const ServeSpec& spec, const std::string& input) {
  constexpr std::size_t kLines = 200'000;
  std::ifstream in(input, std::ios::binary);
  std::vector<std::string> lines;
  std::string line;
  while (lines.size() < kLines && std::getline(in, line))
    lines.push_back(line);
  std::vector<Flow> flows(lines.size());
  Isolated out;
  auto per_call_ns = [](std::size_t calls, const auto& body) {
    std::uint64_t spent = 0;
    std::size_t done = 0;
    while (spent < 200'000'000 || done == 0) {  // >= 0.2 s of calls
      const std::uint64_t t = now_ns();
      body();
      spent += now_ns() - t;
      done += calls;
    }
    return static_cast<double>(spent) / static_cast<double>(done);
  };
  std::size_t parsed = 0;
  out.parse_ns = per_call_ns(lines.size(), [&] {
    parsed = 0;
    for (std::size_t i = 0; i < lines.size(); ++i)
      parsed += dq::serve::parse_flow_line(lines[i], spec.hosts, flows[i]);
  });
  if (parsed != lines.size())
    throw std::runtime_error("isolated parse rejected a generated line");
  std::string buf;
  buf.reserve(1u << 20);
  out.format_ns = per_call_ns(flows.size(), [&] {
    for (std::size_t i = 0; i < flows.size(); ++i) {
      dq::serve::Decision d;
      d.seq = i + 1;
      d.time = flows[i].time;
      d.host = flows[i].host;
      d.dest = flows[i].dest;
      d.failed = flows[i].failed;
      dq::serve::append_decision_line(d, buf);
      if (buf.size() > (1u << 19)) buf.clear();
    }
  });
  const dq::quarantine::QuarantineConfig cfg = serve_config(spec.shared_bitmap);
  std::uint64_t spent = 0;
  std::size_t done = 0;
  while (spent < 200'000'000 || done == 0) {
    dq::quarantine::QuarantineEngine engine(spec.hosts, cfg);
    const std::uint64_t t = now_ns();
    for (const Flow& f : flows) {
      engine.advance_to(f.time);
      engine.observe(f.host, f.dest, f.time, f.failed);
    }
    spent += now_ns() - t;
    done += flows.size();
  }
  out.engine_ns = static_cast<double>(spent) / static_cast<double>(done);
  return out;
}

int run_serve(const ServeSpec& spec, const Args& args) {
  Report report;
  Tracer tracer(args.trace);
  std::string detail;
  report.check("latency_arithmetic", serve_selfcheck(detail), detail);

  // --- set-up: input, 1-shard reference, isolated per-call costs ---
  const std::uint64_t setup_start = now_ns();
  std::filesystem::create_directories(args.work_dir);
  const std::string input = args.work_dir + "/" + spec.name + ".ndjson";
  write_flow_file(input, spec, args.seed);
  std::vector<std::uint64_t> due(spec.flows, 0);
  std::vector<double> latency;
  latency.reserve(spec.flows + 1);
  const Pass ref = serve_pass(spec, input, 1, 0.0, "", due, nullptr, nullptr, 0);
  const double once_setup_s = seconds_since(setup_start);
  Isolated iso;
  if (args.trace) iso = measure_isolated(spec, input);

  const std::string ckpt =
      spec.checkpoint_every > 0 ? args.work_dir + "/" + spec.name + ".ckpt"
                                : "";
  std::vector<double> rep_setup, wall, p50, p99, tail, tail_pct;
  std::vector<double> traced_wall;
  std::size_t latency_samples = 0;
  std::vector<Pass> traced;
  double restore_s = 0.0, checkpoint_bytes = 0.0;
  bool bytes_ok = true, lines_ok = true, clean = true, ckpt_ok = true;
  std::string mismatch;

  const std::uint64_t measure_start = now_ns();
  repeat_for(args.seconds, measure_start, args.trace ? 2 : 1, 64,
             [&](std::size_t i) {
    // Traced runs alternate untraced and traced passes so the overhead
    // ratio compares like with like.
    const bool trace_this = args.trace && (i % 2 == 1);
    Pass pass = serve_pass(spec, input, spec.shards, spec.rate, ckpt, due,
                           trace_this ? nullptr : &latency,
                           trace_this ? &tracer : nullptr,
                           static_cast<std::uint32_t>(i));
    if (pass.hash != ref.hash || pass.bytes != ref.bytes) {
      bytes_ok = false;
      mismatch = "pass " + std::to_string(i) + " wrote " +
                 std::to_string(pass.bytes) + " bytes, reference " +
                 std::to_string(ref.bytes);
    }
    lines_ok = lines_ok && pass.lines == spec.flows + 1;
    const dq::serve::ServeSummary& s = pass.summary;
    clean = clean && s.parse_errors == 0 && s.shed_flows == 0 &&
            s.flows_ingested == spec.flows && s.flows_decided == spec.flows;
    const std::uint64_t written = pass.lines > 0 ? pass.lines - 1 : 0;
    report.attempted(spec.flows,
                     (spec.flows > written ? spec.flows - written : 0) +
                         s.parse_errors + s.shed_flows);
    if (!ckpt.empty()) {
      const std::uint64_t t = now_ns();
      try {
        const dq::serve::CheckpointState state =
            dq::serve::load_checkpoint_file(ckpt);
        ckpt_ok = ckpt_ok && state.flows_ingested == spec.flows;
      } catch (const std::exception& e) {
        ckpt_ok = false;
        mismatch = e.what();
      }
      restore_s = seconds_since(t);
      checkpoint_bytes =
          static_cast<double>(std::filesystem::file_size(ckpt));
    }
    rep_setup.push_back(pass.setup_s);
    if (trace_this) {
      traced_wall.push_back(pass.wall_s);
      traced.push_back(std::move(pass));
      return;
    }
    wall.push_back(pass.wall_s);
    latency_samples += latency.size();
    p50.push_back(percentile(latency, 0.50));
    p99.push_back(percentile(latency, 0.99));
    const Tail t = tail_of(latency);
    tail.push_back(t.value);
    tail_pct.push_back(t.percentile);
  });

  report.check("decision_bytes_match_1_shard", bytes_ok,
               bytes_ok ? "every pass equals the 1-shard reference" : mismatch);
  report.check("one_line_per_flow", lines_ok,
               std::to_string(spec.flows) + " decision lines + summary");
  report.check("no_parse_errors_or_shed", clean,
               "summary counts every flow, none rejected or shed");
  if (!ckpt.empty())
    report.check("final_checkpoint_loads", ckpt_ok,
                 ckpt_ok ? "load_checkpoint_file accepts it" : mismatch);

  // Per-pass figures are combined with the trimmed mean (harness.hpp).
  const double flows = static_cast<double>(spec.flows);
  const double wall_mean = trimmed_mean(wall);
  const double p50_mean = trimmed_mean(p50);
  const double p99_mean = trimmed_mean(p99);
  const double tail_mean = trimmed_mean(tail);
  report.series("wall_s", wall);
  report.series("latency_p50_ms", p50);
  report.metric("setup_s", once_setup_s + median(rep_setup), "s",
                rep_setup.size(),
                "input + 1-shard reference once, median server build");
  report.metric("wall_s", wall_mean, "s", wall.size(),
                "one ServeServer::run over the file");
  report.metric("throughput_per_s", flows / wall_mean, "1/s", wall.size(),
                "flows decided and written per second");
  report.metric("latency_p50_ms", p50_mean, "ms", latency_samples,
                "ingest->written, trimmed mean of per-pass values");
  report.metric("latency_p99_ms", p99_mean, "ms", latency_samples);
  char note[96];
  std::snprintf(note, sizeof note, "p%.6g with 10 samples beyond",
                median(tail_pct));
  report.metric("latency_tail_ms", tail_mean, "ms", latency_samples, note);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  // The same figures under the names the serve docs use.
  if (spec.rate > 0.0) {
    report.metric("written_p50_ms", p50_mean, "ms", latency_samples);
    report.metric("written_p99_ms", p99_mean, "ms", latency_samples);
    report.metric("written_tail_ms", tail_mean, "ms", latency_samples, note);
  } else {
    report.metric("serve_flows_per_s", flows / wall_mean, "1/s", wall.size());
  }

  if (args.trace) {
    // Per-layer numbers are self times from the spans, one value per
    // traced pass, reported as the median over passes.
    std::vector<std::map<std::string, double>> self;
    for (const Pass& p : traced) self.push_back(tracer.self_seconds(p.run));
    auto self_med = [&](const std::string& name) {
      std::vector<double> v;
      for (const auto& m : self) {
        const auto it = m.find(name);
        v.push_back(it == m.end() ? 0.0 : it->second);
      }
      return median(v);
    };
    auto med = [&](auto field) {
      std::vector<double> v;
      for (const Pass& p : traced) v.push_back(field(p));
      return median(v);
    };
    const std::size_t n = traced.size();
    report.metric("serve.source_s", self_med("serve.source"), "s", n,
                  "FlowSource::next on the router: read + parse");
    report.metric("serve.parse_ns", iso.parse_ns, "ns", 0,
                  "isolated parse_flow_line per line");
    report.metric("serve.route_merge_s", self_med("serve.between_calls"), "s",
                  n, "router between source calls minus writes and "
                     "checkpoints: push + stamp + merge + format");
    report.metric("serve.format_ns", iso.format_ns, "ns", 0,
                  "isolated append_decision_line");
    report.metric("serve.write_s", self_med("serve.write"), "s", n);
    report.metric("serve.write_bytes", static_cast<double>(ref.bytes), "B");
    report.metric("serve.write_calls", med([](const Pass& p) {
                    return static_cast<double>(p.write_calls);
                  }),
                  "count");
    report.metric("serve.write_gap_max_ms",
                  med([](const Pass& p) { return p.write_gap_max_ms; }), "ms");
    report.metric("serve.engine_ns", iso.engine_ns, "ns", 0,
                  "isolated advance_to + observe per flow");
    report.metric("serve.worker_busy_s", self_med("serve.worker_batch"), "s", n,
                  "summed over shards");
    report.metric("serve.drain_s", self_med("serve.drain"), "s", n,
                  "after the last flow: quiesce, join, report");
    report.metric("serve.router_stalls",
                  med([](const Pass& p) { return p.router_stalls; }), "count");
    report.metric("serve.worker_stalls",
                  med([](const Pass& p) { return p.worker_stalls; }), "count");
    report.metric("serve.checkpoints", med([](const Pass& p) {
                    return static_cast<double>(p.checkpoints);
                  }),
                  "count");
    report.metric("serve.checkpoint_s", self_med("serve.checkpoint"), "s", n);
    report.metric("serve.checkpoint_bytes", checkpoint_bytes, "B");
    report.metric("serve.restore_s", restore_s, "s", 0,
                  "isolated load_checkpoint_file");
    report.metric("serve.shard1_flows_per_s", flows / ref.wall_s, "1/s", 0,
                  "1-shard reference run");
    std::vector<double> late;
    std::uint64_t behind = 0;
    for (const Pass& p : traced) {
      late.insert(late.end(), p.late_ms.begin(), p.late_ms.end());
      behind += p.behind;
    }
    report.metric("gen.late_p99_ms", percentile(late, 0.99), "ms", late.size(),
                  std::to_string(behind) + " flows were already due when read");
    report.metric("trace.coverage", 1.0 - self_med("serve.run") /
                                              median(traced_wall),
                  "ratio", n, "share of run() under router child spans");
    report.metric("trace.overhead", median(traced_wall) / median(wall),
                  "ratio", n,
                  "traced / untraced run() wall");
    std::uint64_t dropped = 0;
    for (const Pass& p : traced) dropped += p.dropped_spans;
    report.metric("trace.dropped_spans", static_cast<double>(dropped), "count");

    const std::string path = args.work_dir + "/" + spec.name + ".spans.ndjson";
    tracer.write_ndjson(path);
    std::printf("# spans: %s\n# self time per traced pass:\n", path.c_str());
    for (const auto& [name, s] : tracer.self_seconds())
      std::printf("#   %-24s %10.6f s\n", name.c_str(),
                  s / static_cast<double>(n));
  }
  std::filesystem::remove(input);
  if (!ckpt.empty()) std::filesystem::remove(ckpt);
  return report.finish(spec.name);
}

}  // namespace

namespace {

// Scripted write times for the self-check's sink.
std::vector<std::uint64_t> g_script;
std::size_t g_script_next = 0;
std::uint64_t scripted_ns() { return g_script.at(g_script_next++); }

}  // namespace

bool serve_selfcheck(std::string& detail) {
  // Three flows due at 1, 2 and 3 ms. The sink receives line 1 alone at
  // 4 ms, then lines 2-3 plus the summary line in one write at 6 ms:
  // latencies must come out 3, 4 and 3 ms, and the summary line must
  // count as a line without a latency sample.
  constexpr std::uint64_t kMs = 1'000'000;
  std::vector<std::uint64_t> due = {1 * kMs, 2 * kMs, 3 * kMs};
  g_script = {4 * kMs, 6 * kMs};
  g_script_next = 0;
  std::vector<double> latency;
  struct EmptySource final : dq::serve::FlowSource {
    bool next(Flow&) override { return false; }
  } empty;
  BenchSource src(empty, due, 0.0, false);
  CountingSink sink(due, 3, &latency, &src, false, &scripted_ns);
  std::ostream os(&sink);
  const std::string first = "{\"seq\":1}\n";
  const std::string rest = "{\"seq\":2}\n{\"seq\":3}\n{}\n";
  os.write(first.data(), static_cast<std::streamsize>(first.size()));
  os.write(rest.data(), static_cast<std::streamsize>(rest.size()));
  const bool mapping_ok =
      sink.lines == 4 && latency == std::vector<double>{3.0, 4.0, 3.0};

  // Percentile and tail arithmetic on 1..100 (given in reverse).
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  const bool pct_ok = percentile(v, 0.5) == 50.0 && percentile(v, 0.99) == 99.0;
  const Tail t = tail_of(v);
  const bool tail_ok = t.value == 90.0 && t.beyond == 10 && t.percentile == 90.0;
  std::vector<double> small = {1, 2, 3};
  const bool small_ok = tail_of(small).beyond == 0;

  detail = std::string("line->seq ") + (mapping_ok ? "ok" : "BAD") +
           ", percentiles " + (pct_ok ? "ok" : "BAD") + ", tail " +
           (tail_ok && small_ok ? "ok" : "BAD");
  return mapping_ok && pct_ok && tail_ok && small_ok;
}

int run_serve_ndjson(const Args& args) { return run_serve(kNdjson, args); }
int run_serve_paced(const Args& args) { return run_serve(kPaced, args); }

}  // namespace dqb
