#include "serve/source.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/test_pipe.hpp"
#include "stats/rng.hpp"
#include "trace/department.hpp"

namespace dq::serve {
namespace {

std::vector<Flow> drain(FlowSource& source) {
  std::vector<Flow> flows;
  Flow f;
  while (source.next(f)) flows.push_back(f);
  return flows;
}

TEST(NdjsonFlowSource, ParsesWellFormedLines) {
  std::istringstream in(
      "{\"t\":1.5,\"host\":3,\"dest\":991,\"failed\":true,\"worm\":true}\n"
      "{\"t\":2,\"host\":0,\"dest\":12}\n");
  NdjsonFlowSource source(in, 16);
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_DOUBLE_EQ(flows[0].time, 1.5);
  EXPECT_EQ(flows[0].host, 3u);
  EXPECT_EQ(flows[0].dest, 991u);
  EXPECT_TRUE(flows[0].failed);
  EXPECT_TRUE(flows[0].labeled_worm);
  EXPECT_FALSE(flows[1].failed);
  EXPECT_FALSE(flows[1].labeled_worm);
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(NdjsonFlowSource, EmptyStreamYieldsNothing) {
  std::istringstream in("");
  NdjsonFlowSource source(in, 16);
  EXPECT_TRUE(drain(source).empty());
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(NdjsonFlowSource, GarbageIsCountedAndSkippedNeverFatal) {
  std::istringstream in(
      "not json at all\n"
      "\x01\x02\xff\xfe binary garbage\n"
      "{\"t\":1,\"host\":1,\"dest\":5}\n"
      "{\"t\":2,\"host\":\n"                       // truncated mid-object
      "{\"t\":3,\"dest\":5}\n"                     // missing host
      "{\"t\":-1,\"host\":1,\"dest\":5}\n"         // negative time
      "{\"t\":\"x\",\"host\":1,\"dest\":5}\n"      // wrong type
      "{\"t\":4,\"host\":99,\"dest\":5}\n"         // host out of range
      "[1,2,3]\n"                                  // not an object
      "{\"t\":5,\"host\":2,\"dest\":6,\"failed\":false}\n"
      "{\"t\":6,\"host\":2,\"dest\":7,\"failed\"");  // truncated last line
  NdjsonFlowSource source(in, 16);
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows[0].host, 1u);
  EXPECT_EQ(flows[1].host, 2u);
  EXPECT_EQ(source.parse_errors(), 9u);
}

TEST(NdjsonFlowSource, BlankAndCrlfLinesAreTolerated) {
  std::istringstream in(
      "\r\n"
      "\n"
      "{\"t\":1,\"host\":0,\"dest\":5}\r\n");
  NdjsonFlowSource source(in, 4);
  EXPECT_EQ(drain(source).size(), 1u);
  EXPECT_EQ(source.parse_errors(), 0u);
}

TEST(NdjsonFlowSource, WouldBlockOnlyWhenNothingIsReadable) {
  std::istringstream text(
      "{\"t\":1,\"host\":0,\"dest\":5}\n"
      "{\"t\":2,\"host\":1,\"dest\":5}\n");
  NdjsonFlowSource from_string(text, 4);
  Flow f;
  EXPECT_FALSE(from_string.would_block());
  ASSERT_TRUE(from_string.next(f));
  EXPECT_FALSE(from_string.would_block());  // one line remains

  TestPipe pipe;
  NdjsonFlowSource from_pipe(pipe.in(), 4);
  EXPECT_TRUE(from_pipe.would_block());  // empty, the writer still open
  pipe.write("{\"t\":1,\"host\":0,\"dest\":5}\n");
  EXPECT_FALSE(from_pipe.would_block());
  ASSERT_TRUE(from_pipe.next(f));
  EXPECT_TRUE(from_pipe.would_block());  // read dry again
  pipe.close_writer();
  EXPECT_FALSE(from_pipe.next(f));

  // Half a line is not input: next() would wait for the rest of it.
  TestPipe split;
  NdjsonFlowSource from_split(split.in(), 4);
  split.write("{\"t\":1,\"host\":0,\"dest\":5}\n{\"t\":2,\"ho");
  EXPECT_FALSE(from_split.would_block());
  ASSERT_TRUE(from_split.next(f));
  EXPECT_TRUE(from_split.would_block());
  split.write("st\":3,\"dest\":5}\n");
  EXPECT_FALSE(from_split.would_block());
  ASSERT_TRUE(from_split.next(f));
  EXPECT_EQ(f.host, 3u);
}

/// Hands `bytes` out in pieces of random sizes, as a pipe hands out
/// what each write put in it. in_avail() tells the truth: the rest of
/// the current piece, 0 between pieces (the next one has not arrived
/// yet) and -1 at the end.
class PieceBuf final : public std::streambuf {
 public:
  PieceBuf(std::string bytes, std::vector<std::size_t> pieces)
      : bytes_(std::move(bytes)), pieces_(std::move(pieces)) {}

 protected:
  int_type underflow() override {
    if (next_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min(pieces_[piece_++ % pieces_.size()],
                                   bytes_.size() - next_);
    char* p = bytes_.data() + next_;
    setg(p, p, p + n);
    next_ += n;
    return traits_type::to_int_type(*p);
  }
  std::streamsize showmanyc() override {
    return next_ == bytes_.size() ? -1 : 0;
  }

 private:
  std::string bytes_;
  std::vector<std::size_t> pieces_;
  std::size_t piece_ = 0;
  std::size_t next_ = 0;
};

/// What the source must produce: the whole string split at '\n', one
/// trailing '\r' stripped, empty lines skipped, the rest parsed.
struct Reference {
  std::vector<Flow> flows;
  /// Malformed lines before each flow's line.
  std::vector<std::uint64_t> errors_before;
  std::uint64_t errors = 0;
  std::vector<std::string> samples;
};

Reference split_whole(const std::string& bytes, std::uint32_t num_hosts) {
  Reference ref;
  std::size_t begin = 0;
  while (begin < bytes.size()) {
    std::size_t end = bytes.find('\n', begin);
    if (end == std::string::npos) end = bytes.size();
    std::string_view line(bytes.data() + begin, end - begin);
    begin = end + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    Flow f;
    if (line.size() <= NdjsonFlowSource::kMaxLineBytes &&
        parse_flow_line(line, num_hosts, f)) {
      ref.flows.push_back(f);
      ref.errors_before.push_back(ref.errors);
      continue;
    }
    ++ref.errors;
    if (ref.samples.size() < NdjsonFlowSource::kMaxErrorSamples)
      ref.samples.emplace_back(
          line.substr(0, NdjsonFlowSource::kMaxSampleLength));
  }
  return ref;
}

/// A seeded stream of flow lines, garbage, CRLF endings, blank lines,
/// NUL bytes and, now and then, a line longer than the reader's block.
std::string random_stream(Rng& rng) {
  std::string s;
  const std::uint64_t parts = 1 + rng.uniform_int(40);
  for (std::uint64_t i = 0; i < parts; ++i) {
    switch (rng.uniform_int(8)) {
      case 0:
      case 1:
      case 2:
        s += "{\"t\":" + std::to_string(rng.uniform_int(1000)) +
             ",\"host\":" + std::to_string(rng.uniform_int(20)) +
             ",\"dest\":" + std::to_string(rng.uniform_int(1u << 20)) +
             (rng.bernoulli(0.3) ? ",\"failed\":true" : "") +
             (rng.bernoulli(0.2) ? ",\"worm\":true}" : "}");
        break;
      case 3:  // garbage bytes, NULs and line breaks among them
        for (std::uint64_t n = rng.uniform_int(30); n > 0; --n)
          s += static_cast<char>(rng.uniform_int(256));
        break;
      case 4:
        s += rng.bernoulli(0.5) ? "\r" : "";
        break;
      case 5:
        s += std::string(1 + rng.uniform_int(3), '\0');
        break;
      case 6:  // a line past the block: a skipped key pads a valid flow
        if (rng.bernoulli(0.004)) {
          s += "{\"t\":1,\"host\":2,\"dest\":3,\"pad\":\"";
          constexpr std::size_t kBlock = NdjsonFlowSource::kBlockBytes;
          s += std::string(kBlock + rng.uniform_int(2 * kBlock),
                           rng.bernoulli(0.5) ? 'x' : '\0');
          s += "\"}";
        }
        break;
      default:
        break;
    }
    if (rng.bernoulli(0.8)) s += "\n";
  }
  return s;
}

/// Reads `bytes` through a source in `pieces`, asking would_block() at
/// random, and checks every flow against the reference. After each
/// flow the error count and samples are those of the lines before it,
/// however the lines were split among chunks and threads.
void expect_flows_of_whole_string(const std::string& bytes,
                                  const std::vector<std::size_t>& pieces,
                                  std::uint32_t num_hosts, Rng& rng,
                                  int stream) {
  const Reference ref = split_whole(bytes, num_hosts);
  PieceBuf buf(bytes, pieces);
  std::istream in(&buf);
  NdjsonFlowSource source(in, num_hosts);
  std::size_t i = 0;
  Flow f;
  while (true) {
    // would_block() moves bytes into the reader's buffer and may wait
    // on the parse thread; asking it at random must not change what
    // next() returns.
    if (rng.bernoulli(0.5)) source.would_block();
    if (!source.next(f)) break;
    ASSERT_LT(i, ref.flows.size()) << "stream " << stream;
    const Flow& want = ref.flows[i];
    ASSERT_EQ(f.time, want.time) << "stream " << stream;
    ASSERT_EQ(f.host, want.host) << "stream " << stream;
    ASSERT_EQ(f.dest, want.dest) << "stream " << stream;
    ASSERT_EQ(f.failed, want.failed) << "stream " << stream;
    ASSERT_EQ(f.labeled_worm, want.labeled_worm) << "stream " << stream;
    const std::uint64_t errors = ref.errors_before[i];
    ASSERT_EQ(source.parse_errors(), errors)
        << "stream " << stream << " flow " << i;
    const auto& samples = source.parse_error_samples();
    ASSERT_EQ(samples.size(),
              std::min<std::uint64_t>(errors,
                                      NdjsonFlowSource::kMaxErrorSamples))
        << "stream " << stream << " flow " << i;
    ASSERT_TRUE(std::equal(samples.begin(), samples.end(),
                           ref.samples.begin()))
        << "stream " << stream << " flow " << i;
    ++i;
  }
  ASSERT_EQ(i, ref.flows.size()) << "stream " << stream;
  ASSERT_EQ(source.parse_errors(), ref.errors) << "stream " << stream;
  ASSERT_EQ(source.parse_error_samples(), ref.samples) << "stream " << stream;
}

TEST(NdjsonFlowSource, AnyPieceSizesGiveTheFlowsOfTheWholeString) {
  constexpr int kStreams = 10'000;
  constexpr std::uint32_t kHosts = 16;  // some flows are out of range
  constexpr std::size_t kBlock = NdjsonFlowSource::kBlockBytes;
  Rng rng(20261019);
  std::size_t long_lines = 0;
  for (int stream = 0; stream < kStreams; ++stream) {
    const std::string bytes = random_stream(rng);
    long_lines += bytes.size() > kBlock ? 1 : 0;
    // Pieces of one byte, a few bytes, or up to a few blocks.
    const std::uint64_t scale[] = {1, 8, 200, 3 * kBlock};
    const std::uint64_t max_piece = scale[rng.uniform_int(4)];
    std::vector<std::size_t> pieces(1 + rng.uniform_int(16));
    for (std::size_t& p : pieces) p = 1 + rng.uniform_int(max_piece);
    expect_flows_of_whole_string(bytes, pieces, kHosts, rng, stream);
    if (HasFatalFailure()) return;
  }
  EXPECT_GE(long_lines, 50u);  // the buffer grew in some streams

  // Streams of twelve blocks and more, in pieces that mostly carry a whole
  // chunk: each crosses at least four hand-offs to the parse thread, so
  // errors are counted across chunk boundaries, among chunks in flight
  // and between chunks and the lines the reader parses itself. Every
  // third holds a line past kMaxLineBytes, which the reader cuts.
  constexpr int kLongStreams = 24;
  for (int stream = 0; stream < kLongStreams; ++stream) {
    std::string bytes;
    while (bytes.size() < 12 * kBlock) {
      bytes += random_stream(rng) + "\n";
      if (stream % 3 == 0 && rng.bernoulli(0.05))
        bytes += std::string(NdjsonFlowSource::kMaxLineBytes +
                                 rng.uniform_int(3 * kBlock),
                             rng.bernoulli(0.5) ? ' ' : 'x') +
                 "\n";
    }
    std::vector<std::size_t> pieces(1 + rng.uniform_int(16));
    for (std::size_t& p : pieces)
      p = rng.bernoulli(0.1) ? 1 + rng.uniform_int(200)
                             : NdjsonFlowSource::kChunkBytes +
                                   rng.uniform_int(3 * kBlock);
    expect_flows_of_whole_string(bytes, pieces, kHosts, rng,
                                 kStreams + stream);
    if (HasFatalFailure()) return;
  }
}

/// Streams `filler` bytes of `fill` and then `tail`, telling in_avail()
/// all that is left, and records the largest read the reader asks for.
class LongLineBuf final : public std::streambuf {
 public:
  LongLineBuf(std::size_t filler, char fill, std::string tail)
      : filler_(filler), fill_(fill), tail_(std::move(tail)) {}
  std::streamsize largest_read() const noexcept { return largest_; }

 protected:
  std::streamsize showmanyc() override {
    return left() > 0 ? left() : -1;
  }
  std::streamsize xsgetn(char* s, std::streamsize n) override {
    largest_ = std::max(largest_, n);
    n = std::min(n, left());
    for (std::streamsize i = 0; i < n; ++i, ++next_)
      s[i] = next_ < filler_ ? fill_ : tail_[next_ - filler_];
    return n;
  }

 private:
  std::streamsize left() const noexcept {
    return static_cast<std::streamsize>(filler_ + tail_.size() - next_);
  }
  std::size_t filler_;
  char fill_;
  std::string tail_;
  std::size_t next_ = 0;
  std::streamsize largest_ = 0;
};

TEST(NdjsonFlowSource, ALineLongerThanTheCapIsOneErrorAndBoundsTheBuffer) {
  constexpr std::size_t kCap = NdjsonFlowSource::kMaxLineBytes;
  const std::string flow = "{\"t\":2,\"host\":3,\"dest\":4}\n";
  // Four caps, or one cap and a byte, with no '\n', then one flow: one
  // malformed line, sampled as usual, and no read request ever grows
  // with the line.
  for (const std::size_t filler : {4 * kCap, kCap + 1}) {
    LongLineBuf buf(filler, 'a', "\n" + flow);
    std::istream in(&buf);
    NdjsonFlowSource source(in, 16);
    const std::vector<Flow> flows = drain(source);
    ASSERT_EQ(flows.size(), 1u) << filler;
    EXPECT_EQ(flows[0].host, 3u);
    EXPECT_EQ(source.parse_errors(), 1u) << filler;
    EXPECT_EQ(source.parse_error_samples(),
              std::vector<std::string>{
                  std::string(NdjsonFlowSource::kMaxSampleLength, 'a')});
    EXPECT_LE(buf.largest_read(), static_cast<std::streamsize>(
                                      NdjsonFlowSource::kMaxBufferBytes))
        << filler;
  }
  // A flow padded past the cap is malformed too, whether it arrives
  // whole or is cut (its stub is a whole flow and the padding's start),
  // and counts after the flows before it.
  for (const std::size_t pad : {kCap, 4 * kCap}) {
    std::istringstream in(flow + "{\"t\":1,\"host\":1,\"dest\":9}" +
                          std::string(pad, ' ') + "\n" + flow);
    NdjsonFlowSource source(in, 16);
    Flow f;
    ASSERT_TRUE(source.next(f));
    EXPECT_EQ(source.parse_errors(), 0u);
    ASSERT_TRUE(source.next(f));
    EXPECT_EQ(f.host, 3u) << pad;
    EXPECT_EQ(source.parse_errors(), 1u) << pad;
    EXPECT_FALSE(source.next(f));
  }
  // A cut line that ends the stream is still one malformed line.
  LongLineBuf last(4 * kCap, 'a', "");
  std::istream in(&last);
  NdjsonFlowSource source(in, 16);
  EXPECT_TRUE(drain(source).empty());
  EXPECT_EQ(source.parse_errors(), 1u);
}

TEST(NdjsonFlowSource, ALineCutWhileChunksAreInFlightCountsAfterTheirFlows) {
  // A padded flow first grows the buffers, so each later fill reads
  // about a chunk's worth of flows at once: the line past the cap then
  // fills the buffer, and is cut, while earlier chunks are still with
  // the parse thread or not yet read out.
  constexpr std::size_t kCap = NdjsonFlowSource::kMaxLineBytes;
  const std::string flow = "{\"t\":2,\"host\":3,\"dest\":4}\n";
  std::string bytes = "{\"t\":1,\"host\":1,\"dest\":9,\"pad\":\"" +
                      std::string(kCap / 2, 'p') + "\"}\n";
  std::size_t flows = 1;
  for (; bytes.size() < 3 * kCap; ++flows) bytes += flow;
  bytes += std::string(4 * kCap, 'a') + "\n" + flow;
  std::istringstream in(bytes);
  NdjsonFlowSource source(in, 16);
  Flow f;
  for (std::size_t i = 0; i < flows; ++i) {
    ASSERT_TRUE(source.next(f)) << i;
    ASSERT_EQ(source.parse_errors(), 0u) << i;
  }
  ASSERT_TRUE(source.next(f));
  EXPECT_EQ(source.parse_errors(), 1u);
  EXPECT_FALSE(source.next(f));
}

TEST(TraceFlowSource, FailureBitsMatchFirstContactOracle) {
  // Host 0: dns answer then outbound to the resolved ip (not failed),
  // outbound to a cold ip (failed), inbound then reply (not failed).
  trace::Trace t;
  t.add({0.0, trace::EventType::kDnsAnswer, 0, 100, 60.0});
  t.add({1.0, trace::EventType::kOutboundContact, 0, 100, 0.0});
  t.add({2.0, trace::EventType::kOutboundContact, 0, 200, 0.0});
  t.add({3.0, trace::EventType::kInboundContact, 0, 300, 0.0});
  t.add({4.0, trace::EventType::kOutboundContact, 0, 300, 0.0});
  // Host 1 (worm category): blind scan.
  t.add({5.0, trace::EventType::kOutboundContact, 1, 400, 0.0});
  t.finalize();
  t.set_host_categories({trace::HostCategory::kNormalClient,
                         trace::HostCategory::kWormBlaster});

  TraceFlowSource source(t);
  EXPECT_LT(source.end_time_hint(), 0.0);  // not exhausted yet
  const std::vector<Flow> flows = drain(source);
  ASSERT_EQ(flows.size(), 4u);  // only outbound contacts become flows
  EXPECT_FALSE(flows[0].failed);
  EXPECT_TRUE(flows[1].failed);
  EXPECT_FALSE(flows[2].failed);
  EXPECT_TRUE(flows[3].failed);
  EXPECT_FALSE(flows[0].labeled_worm);
  EXPECT_TRUE(flows[3].labeled_worm);
  EXPECT_DOUBLE_EQ(source.end_time_hint(), t.duration());
}

TEST(TraceFlowSource, PacingDoesNotChangeContent) {
  trace::DepartmentConfig config;
  config.normal_clients = 10;
  config.servers = 1;
  config.p2p_clients = 1;
  config.blaster_hosts = 1;
  config.welchia_hosts = 1;
  config.duration = 60.0;
  const trace::Trace t = trace::generate_department_trace(config, 7);

  TraceFlowSource fast(t, 0.0);
  TraceFlowSource paced(t, 1e7);  // ~6 microseconds of pacing total
  const std::vector<Flow> a = drain(fast);
  const std::vector<Flow> b = drain(paced);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].host, b[i].host);
    EXPECT_EQ(a[i].dest, b[i].dest);
    EXPECT_EQ(a[i].failed, b[i].failed);
  }
}

TEST(TraceFlowSource, WouldBlockOnlyWhilePacedAheadOfTheClock) {
  // A DNS answer sits between two contacts: pacing looks past it to
  // the next flow.
  trace::Trace t;
  t.add({0.0, trace::EventType::kOutboundContact, 0, 100, 0.0});
  t.add({0.5, trace::EventType::kDnsAnswer, 0, 200, 60.0});
  t.add({3600.0, trace::EventType::kOutboundContact, 0, 200, 0.0});
  t.finalize();
  t.set_host_categories({trace::HostCategory::kNormalClient});
  Flow f;

  TraceFlowSource unpaced(t);
  EXPECT_FALSE(unpaced.would_block());
  ASSERT_TRUE(unpaced.next(f));
  EXPECT_FALSE(unpaced.would_block());

  // At 1000x the DNS answer is due after 0.5 ms, the contact after
  // 3.6 s.
  TraceFlowSource paced(t, 1000.0);
  EXPECT_FALSE(paced.would_block());  // the first contact starts the clock
  ASSERT_TRUE(paced.next(f));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(paced.would_block());

  // At 10^6x the second contact is due 3.6 ms after the first.
  TraceFlowSource due(t, 1e6);
  ASSERT_TRUE(due.next(f));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(due.would_block());
  ASSERT_TRUE(due.next(f));
  EXPECT_FALSE(due.would_block());  // exhausted: next() returns at once
  EXPECT_FALSE(due.next(f));
}

TEST(SyntheticFlowSource, NeverWouldBlock) {
  SyntheticConfig config;
  config.flows = 2;
  SyntheticFlowSource source(config);
  Flow f;
  EXPECT_FALSE(source.would_block());
  ASSERT_TRUE(source.next(f));
  EXPECT_FALSE(source.would_block());
}

TEST(SyntheticFlowSource, DeterministicAndSeedSensitive) {
  SyntheticConfig config;
  config.flows = 1000;
  config.hosts = 64;
  SyntheticFlowSource a(config), b(config);
  const std::vector<Flow> fa = drain(a), fb = drain(b);
  ASSERT_EQ(fa.size(), 1000u);
  ASSERT_EQ(fb.size(), 1000u);
  bool identical = true, any_failed = false, any_worm = false;
  for (std::size_t i = 0; i < fa.size(); ++i) {
    identical = identical && fa[i].host == fb[i].host &&
                fa[i].dest == fb[i].dest && fa[i].failed == fb[i].failed &&
                fa[i].time == fb[i].time;
    any_failed = any_failed || fa[i].failed;
    any_worm = any_worm || fa[i].labeled_worm;
    EXPECT_LT(fa[i].host, config.hosts);
  }
  EXPECT_TRUE(identical);
  EXPECT_TRUE(any_failed);

  config.seed = 43;
  SyntheticFlowSource c(config);
  const std::vector<Flow> fc = drain(c);
  bool differs = false;
  for (std::size_t i = 0; i < fc.size(); ++i)
    differs = differs || fc[i].host != fa[i].host || fc[i].dest != fa[i].dest;
  EXPECT_TRUE(differs);
}

TEST(SyntheticFlowSource, WormHostsScanWideAndFailOften) {
  SyntheticConfig config;
  config.flows = 20000;
  config.hosts = 100;
  config.worm_fraction = 0.1;  // hosts 0..9 are scanners
  SyntheticFlowSource source(config);
  std::uint64_t worm_flows = 0, worm_failed = 0;
  std::uint64_t benign_flows = 0, benign_failed = 0;
  Flow f;
  while (source.next(f)) {
    if (f.labeled_worm) {
      EXPECT_LT(f.host, 10u);
      ++worm_flows;
      worm_failed += f.failed ? 1 : 0;
    } else {
      ++benign_flows;
      benign_failed += f.failed ? 1 : 0;
    }
  }
  ASSERT_GT(worm_flows, 0u);
  ASSERT_GT(benign_flows, 0u);
  EXPECT_GT(static_cast<double>(worm_failed) / worm_flows, 0.8);
  EXPECT_LT(static_cast<double>(benign_failed) / benign_flows, 0.1);
}

}  // namespace
}  // namespace dq::serve
