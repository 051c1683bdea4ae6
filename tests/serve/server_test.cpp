#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "serve/test_pipe.hpp"
#include "trace/department.hpp"
#include "trace/quarantine_replay.hpp"

namespace dq::serve {
namespace {

/// Failure-ratio-only detector like the replay tests', tuned hotter
/// (3 blind contacts out of 70% in a 5 s window) so quarantines
/// actually fire on the small department trace used here.
quarantine::QuarantineConfig replay_config() {
  quarantine::QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 5.0;
  c.detector.contact_rate_threshold = 0.0;
  c.detector.distinct_dest_threshold = 0.0;
  c.detector.failure_ratio_threshold = 0.7;
  c.detector.failure_min_attempts = 3;
  c.policy.base_period = 120.0;
  c.policy.escalation = 4.0;
  c.policy.max_period = 1200.0;
  return c;
}

trace::Trace small_department_trace() {
  trace::DepartmentConfig config;
  config.normal_clients = 30;
  config.servers = 3;
  config.p2p_clients = 3;
  config.blaster_hosts = 4;
  config.welchia_hosts = 4;
  config.duration = 600.0;
  // The defaults model multi-day duty cycles (scan epochs separated by
  // ~40 min pauses); compress them so a 600 s trace contains scanning.
  config.blaster.pause_epoch_mean = 120.0;
  config.welchia.sweep_interval_mean = 200.0;
  return trace::generate_department_trace(config, 11);
}

ServeSummary run_on_trace(
    const trace::Trace& t, std::size_t shards,
    std::ostream* decisions = nullptr, std::ostream* metrics = nullptr,
    std::size_t queue_capacity = ServeOptions{}.queue_capacity) {
  ServeOptions options;
  options.shards = shards;
  options.num_hosts = static_cast<std::uint32_t>(t.num_hosts());
  options.quarantine = replay_config();
  options.queue_capacity = queue_capacity;
  ServeServer server(options);
  TraceFlowSource source(t);
  return server.run(source, decisions, metrics);
}

/// Unbuffered sink that keeps every write it receives whole, so a test
/// can see where the server drew its write boundaries.
class WriteLog final : public std::streambuf {
 public:
  std::vector<std::string> writes;

  std::string bytes() const {
    std::string all;
    for (const std::string& w : writes) all += w;
    return all;
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    writes.emplace_back(s, static_cast<std::size_t>(n));
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof()))
      writes.emplace_back(1, traits_type::to_char_type(c));
    return traits_type::not_eof(c);
  }
};

/// The server's write rule: every decision write ends at a line
/// boundary and runs no further than the first one at or past 64 KiB.
/// Shorter writes come from the age bound and from the flush before the
/// router waits on its source, so their sizes depend on wall time. The
/// summary line follows in a write of its own.
void expect_flush_boundaries(const std::vector<std::string>& writes) {
  constexpr std::size_t kFlushBytes = std::size_t{1} << 16;
  ASSERT_GE(writes.size(), 2u);
  for (std::size_t i = 0; i + 1 < writes.size(); ++i) {
    const std::string& w = writes[i];
    ASSERT_EQ(w.back(), '\n') << "write " << i;
    const std::size_t last_line = w.rfind('\n', w.size() - 2) + 1;
    EXPECT_LT(last_line, kFlushBytes) << "write " << i << " flushed late";
    EXPECT_EQ(w.find("\"summary\""), std::string::npos) << "write " << i;
  }
  const std::string& summary = writes.back();
  EXPECT_EQ(summary.rfind("{\"summary\":", 0), 0u);
  EXPECT_EQ(summary.find('\n'), summary.size() - 1);
}

TEST(ServeServer, TraceReplayMatchesSingleEngineExactly) {
  const trace::Trace t = small_department_trace();
  const trace::QuarantineReplayReport expected =
      trace::replay_quarantine(t, replay_config());

  const ServeSummary summary = run_on_trace(t, 3);

  // Same detectors, same failure oracle, same end time: the serve
  // report must equal the replay's overall report bit for bit.
  const quarantine::QuarantineReport& a = summary.report;
  const quarantine::QuarantineReport& b = expected.overall;
  EXPECT_EQ(a.target_hosts, b.target_hosts);
  EXPECT_EQ(a.benign_hosts, b.benign_hosts);
  EXPECT_EQ(a.detected_targets, b.detected_targets);
  EXPECT_EQ(a.detection_rate, b.detection_rate);
  EXPECT_EQ(a.mean_detection_latency, b.mean_detection_latency);
  EXPECT_EQ(a.false_positive_hosts, b.false_positive_hosts);
  EXPECT_EQ(a.false_positive_rate, b.false_positive_rate);
  EXPECT_EQ(a.benign_quarantine_time, b.benign_quarantine_time);
  EXPECT_EQ(a.mean_benign_quarantine_time, b.mean_benign_quarantine_time);
  EXPECT_EQ(a.target_quarantine_time, b.target_quarantine_time);
  EXPECT_EQ(a.quarantine_events, b.quarantine_events);

  EXPECT_EQ(summary.end_time, t.duration());
  EXPECT_EQ(summary.flows_ingested, summary.flows_decided);
  EXPECT_GT(summary.flows_ingested, 0u);
  EXPECT_FALSE(summary.interrupted);
  EXPECT_GT(summary.report.detected_targets, 0.0);  // quarantines fired
}

TEST(ServeServer, DecisionStreamByteIdenticalAcrossShardCounts) {
  const trace::Trace t = small_department_trace();
  std::vector<std::string> streams;
  // Small queues make the merge run on its capacity rule rather than
  // its 64 KiB rule; neither may move a byte or break the write rule.
  for (const std::size_t capacity : {ServeOptions{}.queue_capacity,
                                     std::size_t{16}, std::size_t{64}}) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      WriteLog sink;
      std::ostream decisions(&sink);
      const ServeSummary summary =
          run_on_trace(t, shards, &decisions, nullptr, capacity);
      EXPECT_EQ(summary.flows_decided, summary.flows_ingested);
      EXPECT_GT(sink.writes.size(), 10u);  // many full flushes
      expect_flush_boundaries(sink.writes);
      streams.push_back(sink.bytes());
    }
  }
  ASSERT_FALSE(streams[0].empty());
  for (std::size_t i = 1; i < streams.size(); ++i)
    EXPECT_EQ(streams[0], streams[i]) << "run " << i;

  // One decision line per flow plus the trailing summary line.
  std::size_t lines = 0;
  for (const char c : streams[0]) lines += c == '\n' ? 1 : 0;
  std::istringstream check(streams[0]);
  std::string first_line;
  ASSERT_TRUE(std::getline(check, first_line));
  EXPECT_EQ(first_line.rfind("{\"seq\":1,", 0), 0u);
  EXPECT_NE(streams[0].find("\"summary\""), std::string::npos);
  const ServeSummary reference = run_on_trace(t, 1);
  EXPECT_EQ(lines, reference.flows_ingested + 1);
}

TEST(ServeServer, StopMidStreamEqualsUninterruptedPrefixRun) {
  reset_stop();
  SyntheticConfig synth;
  synth.flows = 50'000;
  synth.hosts = 512;
  synth.worm_fraction = 0.05;
  constexpr std::uint64_t kPrefix = 20'000;

  ServeOptions options;
  options.shards = 4;
  options.num_hosts = synth.hosts;
  options.quarantine = replay_config();
  options.stop_after_flows = kPrefix;

  std::ostringstream interrupted_out;
  ServeServer interrupted_server(options);
  SyntheticFlowSource interrupted_source(synth);
  const ServeSummary interrupted =
      interrupted_server.run(interrupted_source, &interrupted_out, nullptr);
  reset_stop();

  ASSERT_TRUE(interrupted.interrupted);
  ASSERT_EQ(interrupted.flows_ingested, kPrefix);
  EXPECT_EQ(interrupted.flows_decided, kPrefix);  // drained, not dropped

  // The same stream truncated at the prefix, run to natural exhaustion.
  synth.flows = kPrefix;
  options.stop_after_flows = 0;
  std::ostringstream prefix_out;
  ServeServer prefix_server(options);
  SyntheticFlowSource prefix_source(synth);
  const ServeSummary prefix =
      prefix_server.run(prefix_source, &prefix_out, nullptr);

  EXPECT_FALSE(prefix.interrupted);
  EXPECT_EQ(interrupted.report.detected_targets,
            prefix.report.detected_targets);
  EXPECT_EQ(interrupted.report.false_positive_hosts,
            prefix.report.false_positive_hosts);
  EXPECT_EQ(interrupted.report.quarantine_events,
            prefix.report.quarantine_events);
  EXPECT_EQ(interrupted.report.benign_quarantine_time,
            prefix.report.benign_quarantine_time);
  EXPECT_EQ(interrupted.end_time, prefix.end_time);

  // Decision lines are identical; only the summary line may differ
  // (interrupted flag).
  const std::string a = interrupted_out.str();
  const std::string b = prefix_out.str();
  const std::size_t a_cut = a.rfind('\n', a.size() - 2);
  const std::size_t b_cut = b.rfind('\n', b.size() - 2);
  ASSERT_NE(a_cut, std::string::npos);
  EXPECT_EQ(a.substr(0, a_cut), b.substr(0, b_cut));
  EXPECT_NE(a.find("\"interrupted\":true"), std::string::npos);
  EXPECT_NE(b.find("\"interrupted\":false"), std::string::npos);
}

TEST(ServeServer, LatencyHistogramIsWallClockOnly) {
  const trace::Trace t = small_department_trace();
  ServeOptions options;
  options.shards = 2;
  options.num_hosts = static_cast<std::uint32_t>(t.num_hosts());
  options.quarantine = replay_config();
  ServeServer server(options);
  TraceFlowSource source(t);
  const ServeSummary summary = server.run(source, nullptr, nullptr);

  // Every decided flow records exactly one latency sample.
  const campaign::JsonValue full = server.metrics().snapshot(false);
  const campaign::JsonValue& hist =
      full.at("histograms").at("serve.decision_latency_ns");
  EXPECT_EQ(hist.at("count").as_uint(), summary.flows_decided);

  // Percentiles are bucket upper bounds: p50 <= p90 <= p99, all 2^k-1.
  EXPECT_LE(summary.latency_p50_ns, summary.latency_p90_ns);
  EXPECT_LE(summary.latency_p90_ns, summary.latency_p99_ns);
  EXPECT_GT(summary.latency_p99_ns, 0u);

  // Wall-clock telemetry is excluded from deterministic snapshots and
  // from the summary JSON, so cached artifacts stay byte-stable.
  const std::string det = server.metrics().snapshot(true).dump();
  EXPECT_EQ(det.find("decision_latency"), std::string::npos);
  EXPECT_EQ(det.find("flows_per_sec"), std::string::npos);
  EXPECT_NE(det.find("serve.flows_ingested"), std::string::npos);
  const std::string summary_json = summary.to_json().dump();
  EXPECT_EQ(summary_json.find("latency_p"), std::string::npos);
  EXPECT_EQ(summary_json.find("flows_per_sec"), std::string::npos);
  EXPECT_EQ(summary_json.find("wall"), std::string::npos);
}

TEST(ServeServer, EmptyStreamYieldsZeroReportAndSummaryLine) {
  std::istringstream in("");
  NdjsonFlowSource source(in, 64);
  ServeOptions options;
  options.shards = 2;
  options.num_hosts = 64;
  options.quarantine = replay_config();
  ServeServer server(options);
  std::ostringstream decisions;
  const ServeSummary summary = server.run(source, &decisions, nullptr);

  EXPECT_EQ(summary.flows_ingested, 0u);
  EXPECT_EQ(summary.flows_decided, 0u);
  EXPECT_EQ(summary.report.target_hosts, 0u);
  EXPECT_EQ(summary.report.benign_hosts, 64u);
  EXPECT_EQ(summary.report.false_positive_hosts, 0.0);
  EXPECT_FALSE(summary.interrupted);
  const std::string out = decisions.str();
  EXPECT_EQ(out.rfind("{\"summary\":", 0), 0u);  // only the summary line
  EXPECT_EQ(out.back(), '\n');
}

TEST(ServeServer, DecisionsReachTheSinkBeforeTheSummaryLine) {
  // Far below one 64 KiB flush: every decision line must still leave
  // in an earlier write than the summary line, not wait behind the
  // final report.
  SyntheticConfig synth;
  synth.flows = 200;
  synth.hosts = 64;
  ServeOptions options;
  options.shards = 2;
  options.num_hosts = synth.hosts;
  options.quarantine = replay_config();
  ServeServer server(options);
  SyntheticFlowSource source(synth);
  WriteLog sink;
  std::ostream decisions(&sink);
  server.run(source, &decisions, nullptr);

  expect_flush_boundaries(sink.writes);
  std::size_t lines = 0;
  for (std::size_t i = 0; i + 1 < sink.writes.size(); ++i)
    for (const char c : sink.writes[i]) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, synth.flows);
}

/// Thread-safe sink that counts the lines it receives, so another
/// thread can wait for a decision.
class LineSink final : public std::streambuf {
 public:
  std::size_t lines() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return lines_;
  }
  /// Waits until `n` lines have arrived; false when `timeout` passes
  /// first.
  bool wait_for_lines(std::size_t n, std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    return arrived_.wait_for(lock, timeout, [&] { return lines_ >= n; });
  }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      lines_ += static_cast<std::size_t>(std::count(s, s + n, '\n'));
    }
    arrived_.notify_all();
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return traits_type::not_eof(c);
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable arrived_;
  std::size_t lines_ = 0;
};

std::uint64_t flows_decided(const ServeServer& server) {
  return server.metrics()
      .snapshot(false)
      .at("counters")
      .at("serve.flows_decided")
      .as_uint();
}

/// Sleeps 2 ms before every flow without saying so (would_block() stays
/// false), as an open-loop generator waits inside next(). Before it
/// hands out flow k+1 it also waits until flow k is decided, so the test
/// checks the router's write rule and not the shards' scheduling.
class SleepySource final : public FlowSource {
 public:
  SleepySource(const SyntheticConfig& config, const ServeServer& server,
               const LineSink& sink)
      : inner_(config), server_(server), sink_(sink) {}

  /// Flows asked for before the sink held every line but the last two.
  std::vector<std::uint64_t> late;

  bool next(Flow& out) override {
    if (sink_.lines() + 1 < returned_) late.push_back(returned_ + 1);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (flows_decided(server_) < returned_ &&
           std::chrono::steady_clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (!inner_.next(out)) return false;
    ++returned_;
    return true;
  }

 private:
  SyntheticFlowSource inner_;
  const ServeServer& server_;
  const LineSink& sink_;
  std::uint64_t returned_ = 0;
};

ServeOptions small_options(std::uint32_t hosts) {
  ServeOptions options;
  options.shards = 2;
  options.num_hosts = hosts;
  options.quarantine = replay_config();
  return options;
}

TEST(ServeServer, AgeBoundWritesWhileTheSourceWaitsInsideNext) {
  // 30 lines are ~3 KiB, far below one 64 KiB write: only the age bound
  // gets them out before the stream ends. When the source is asked for
  // flow k+2, line k must already be in the sink.
  SyntheticConfig synth;
  synth.flows = 30;
  synth.hosts = 64;
  ServeServer server(small_options(synth.hosts));
  LineSink sink;
  std::ostream decisions(&sink);
  SleepySource source(synth, server, sink);
  server.run(source, &decisions, nullptr);

  EXPECT_TRUE(source.late.empty())
      << source.late.size() << " flows asked for early, the first is flow "
      << source.late.front();
  EXPECT_EQ(sink.lines(), synth.flows + 1);
}

TEST(ServeServer, EachDecisionReachesTheSinkBeforeTheRouterWaitsOnAPipe) {
  // A producer writes one flow, waits for its decision, then writes the
  // next: the router must write each decision before it blocks reading
  // the quiet pipe.
  constexpr std::size_t kLines = 20;
  TestPipe pipe;
  NdjsonFlowSource source(pipe.in(), 64);
  ServeServer server(small_options(64));
  LineSink sink;
  std::ostream decisions(&sink);
  std::size_t answered = 0;
  std::thread producer([&] {
    for (std::size_t i = 0; i < kLines; ++i) {
      pipe.write("{\"t\":" + std::to_string(i) + ",\"host\":" +
                 std::to_string(i % 64) + ",\"dest\":9}\n");
      if (!sink.wait_for_lines(i + 1, std::chrono::seconds(10))) break;
      ++answered;
    }
    pipe.close_writer();
  });
  const ServeSummary summary = server.run(source, &decisions, nullptr);
  producer.join();

  EXPECT_EQ(answered, kLines);
  EXPECT_EQ(summary.flows_decided, kLines);
  EXPECT_EQ(sink.lines(), kLines + 1);
}

TEST(ServeServer, AWholeLineIsDecidedWhileTheNextIsHalfWritten) {
  // The producer writes one whole line and half of the next, then
  // waits: the whole line's decision must reach the sink within 1 s,
  // without the rest of the next line. The bytes come in one write, in
  // two (the whole line, then the half), or with the half line split
  // across the two writes.
  const std::vector<std::vector<std::string>> cases = {
      {"{\"t\":1,\"host\":1,\"dest\":9}\n{\"t\":2,\"ho"},
      {"{\"t\":1,\"host\":1,\"dest\":9}\n", "{\"t\":2,\"ho"},
      {"{\"t\":1,\"host\":1,\"dest\":9}\n{\"t\"", ":2,\"ho"},
  };
  for (const std::vector<std::string>& writes : cases) {
    TestPipe pipe;
    NdjsonFlowSource source(pipe.in(), 64);
    ServeServer server(small_options(64));
    LineSink sink;
    std::ostream decisions(&sink);
    std::thread router([&] { server.run(source, &decisions, nullptr); });
    for (const std::string& w : writes) {
      pipe.write(w);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    const bool first = sink.wait_for_lines(1, std::chrono::seconds(1));
    pipe.write("st\":2,\"dest\":9}\n");
    const bool second = sink.wait_for_lines(2, std::chrono::seconds(10));
    pipe.close_writer();
    router.join();

    EXPECT_TRUE(first) << "no decision within 1 s after " << writes.size()
                       << " write(s)";
    EXPECT_TRUE(second);
    EXPECT_EQ(sink.lines(), 3u);  // two decisions and the summary
  }
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ServeServer, IdleShardsSleepWhileTheInputIsQuiet) {
  // The router blocks on an empty pipe; the two workers must back off
  // to sleeps rather than spin on their empty in-queues.
  TestPipe pipe;
  NdjsonFlowSource source(pipe.in(), 64);
  ServeServer server(small_options(64));
  std::ostringstream decisions;
  std::thread router([&] { server.run(source, &decisions, nullptr); });
  // Let the workers get past their yields to the longest sleep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const double cpu_start = process_cpu_seconds();
  const auto wall_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu = process_cpu_seconds() - cpu_start;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  pipe.close_writer();
  router.join();

  EXPECT_LT(cpu / wall, 0.3) << cpu << " s of CPU in " << wall << " s";
  EXPECT_EQ(decisions.str().rfind("{\"summary\":", 0), 0u);
}

TEST(ServeServer, GarbageInputCountedInSummaryAndMetric) {
  std::istringstream in(
      "garbage\n"
      "{\"t\":1,\"host\":2,\"dest\":9}\n"
      "{\"t\":0.5,\"host\":3,\"dest\":9}\n"  // time regression: clamped
      "also not json\n"
      "{\"t\":2,\"host\":4,\"dest\":9}\n");
  NdjsonFlowSource source(in, 16);
  ServeOptions options;
  options.num_hosts = 16;
  options.quarantine = replay_config();
  ServeServer server(options);
  std::ostringstream decisions;
  const ServeSummary summary = server.run(source, &decisions, nullptr);

  EXPECT_EQ(summary.flows_ingested, 3u);
  EXPECT_EQ(summary.parse_errors, 2u);
  EXPECT_EQ(summary.time_regressions, 1u);
  const campaign::JsonValue snap = server.metrics().snapshot(true);
  EXPECT_EQ(snap.at("counters").at("serve.parse_errors").as_uint(), 2u);
  EXPECT_EQ(snap.at("counters").at("serve.time_regressions").as_uint(), 1u);
  // The regressed flow is clamped to the running maximum, t=1.
  EXPECT_NE(decisions.str().find("{\"seq\":2,\"t\":1,\"host\":3"),
            std::string::npos);
}

TEST(ServeServer, MetricsStreamEmitsPeriodicSnapshots) {
  SyntheticConfig synth;
  synth.flows = 1000;
  synth.hosts = 64;
  ServeOptions options;
  options.shards = 2;
  options.num_hosts = synth.hosts;
  options.quarantine = replay_config();
  options.metrics_interval_flows = 250;
  ServeServer server(options);
  SyntheticFlowSource source(synth);
  std::ostringstream metrics;
  server.run(source, nullptr, &metrics);

  // 4 periodic snapshots plus the final one, each one JSON line.
  std::istringstream lines(metrics.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    const campaign::JsonValue v = campaign::JsonValue::parse(line);
    EXPECT_NE(v.at("counters").find("serve.flows_ingested"), nullptr);
  }
  EXPECT_EQ(n, 5u);
}

TEST(ServeServer, SnapshotsCountTheParseErrorsBeforeTheirFlow) {
  // Flows of ~40 bytes, many blocks of them, so the source hands most
  // of the stream to its parse thread in chunks. Garbage sits right
  // before and right after each snapshot's flow, and every 97th line.
  constexpr std::uint64_t kFlows = 40'000;
  constexpr std::uint64_t kEvery = 1'000;
  std::string input;
  std::vector<std::uint64_t> garbage_before(kFlows + 1, 0);
  std::uint64_t garbage = 0;
  std::uint64_t lines = 0;
  const auto add_garbage = [&] {
    input += "not a flow\n";
    ++garbage;
    ++lines;
  };
  for (std::uint64_t i = 1; i <= kFlows; ++i) {
    if (i % kEvery == 0 || lines % 97 == 0) add_garbage();
    garbage_before[i] = garbage;
    input += "{\"t\":" + std::to_string(i) + ",\"host\":" +
             std::to_string(i % 64) + ",\"dest\":" + std::to_string(i) +
             "}\n";
    ++lines;
    if (i % kEvery == 0) add_garbage();
  }
  ASSERT_GT(input.size(), 8 * NdjsonFlowSource::kBlockBytes);

  std::istringstream in(input);
  NdjsonFlowSource source(in, 64);
  ServeOptions options;
  options.shards = 2;
  options.num_hosts = 64;
  options.quarantine = replay_config();
  options.metrics_interval_flows = kEvery;
  ServeServer server(options);
  std::ostringstream metrics;
  const ServeSummary summary = server.run(source, nullptr, &metrics);
  EXPECT_EQ(summary.parse_errors, garbage);

  // One snapshot per kEvery flows, then the final one.
  std::istringstream snapshots(metrics.str());
  std::string line;
  std::uint64_t n = 0;
  while (std::getline(snapshots, line)) {
    ++n;
    const campaign::JsonValue counters =
        campaign::JsonValue::parse(line).at("counters");
    const std::uint64_t flows = counters.at("serve.flows_ingested").as_uint();
    const bool periodic = n <= kFlows / kEvery;
    if (periodic) {
      EXPECT_EQ(flows, n * kEvery);
    }
    EXPECT_EQ(counters.at("serve.parse_errors").as_uint(),
              periodic ? garbage_before[n * kEvery] : garbage)
        << "snapshot " << n << " at " << flows << " flows";
  }
  EXPECT_EQ(n, kFlows / kEvery + 1);
}

TEST(ServeServer, ValidatesOptions) {
  ServeOptions bad_shards;
  bad_shards.shards = 0;
  bad_shards.quarantine = replay_config();
  EXPECT_THROW(ServeServer{bad_shards}, std::invalid_argument);

  ServeOptions bad_hosts;
  bad_hosts.num_hosts = 0;
  bad_hosts.quarantine = replay_config();
  EXPECT_THROW(ServeServer{bad_hosts}, std::invalid_argument);

  ServeOptions bad_config;  // default QuarantineConfig window is fine,
  bad_config.quarantine.detector.window = -1.0;  // this is not
  EXPECT_THROW(ServeServer{bad_config}, std::invalid_argument);

  ServeOptions ok;
  ok.num_hosts = 8;
  ok.quarantine = replay_config();
  ServeServer server(ok);
  std::istringstream empty("");
  NdjsonFlowSource source(empty, 8);
  server.run(source, nullptr, nullptr);
  NdjsonFlowSource again(empty, 8);
  EXPECT_THROW(server.run(again, nullptr, nullptr), std::logic_error);
}

}  // namespace
}  // namespace dq::serve
