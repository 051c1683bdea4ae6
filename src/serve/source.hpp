// Flow sources for `dqctl serve`: the three ways a flow stream enters
// the service.
//
//  * NdjsonFlowSource    — live ingestion from a stream (stdin, file).
//    Malformed or truncated lines are counted and skipped, never
//    fatal: a line-rate front-end must survive garbage input.
//  * TraceFlowSource     — replays a finalized trace::Trace, computing
//    the kNoPriorNoDns failure proxy with the exact oracle
//    replay_quarantine uses, optionally paced at a multiple of real
//    time (--speed).
//  * SyntheticFlowSource — deterministic counter-based load generator
//    for the flows/sec bench: flow i is a pure function of (seed, i),
//    so any prefix is reproducible and shard-count independent.
//
// The router owns each source and is the only thread that calls it; all
// per-flow state lives here so shard workers stay stateless beyond the
// engine. NdjsonFlowSource parses bulk input on a thread of its own,
// behind that same single-caller interface.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <istream>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/flow.hpp"
#include "trace/quarantine_replay.hpp"
#include "trace/trace.hpp"

namespace dq::serve {

class FlowSource {
 public:
  virtual ~FlowSource() = default;

  /// Fills `out` with the next flow; false at end of stream. Never
  /// throws on malformed input — implementations count and skip.
  virtual bool next(Flow& out) = 0;

  /// Lines (or events) rejected so far — feeds `serve.parse_errors`.
  virtual std::uint64_t parse_errors() const noexcept { return 0; }

  /// The first few rejected lines, truncated — surfaced in the summary
  /// JSON (`parse_error_samples`) so operators can see *what* failed to
  /// parse, not just how many. Empty for sources that cannot reject.
  virtual const std::vector<std::string>& parse_error_samples()
      const noexcept {
    static const std::vector<std::string> kNone;
    return kNone;
  }

  /// Logical end time of an exhausted stream, when the source knows it
  /// (a trace's duration covers inbound/DNS events after the last
  /// outbound contact). Negative when unknown; the server then uses
  /// the last ingested flow time.
  virtual double end_time_hint() const noexcept { return -1.0; }

  /// True when next() would wait for input that has not arrived yet (a
  /// quiet pipe, a paced replay ahead of its clock). The router then
  /// writes every decision it holds before it calls next(). Sources
  /// that never wait, or cannot tell, return false. Not const: a source
  /// may take in what is ready to find out.
  virtual bool would_block() { return false; }
};

/// Reads NDJSON flow lines in blocks. The caller's thread does every
/// read. Once kChunkBytes of whole lines are buffered it hands them to a
/// parse thread as one chunk, keeping up to kChunksInFlight chunks there
/// while the stream has bytes ready, and next() returns the flows that
/// thread parsed. Fewer buffered lines it parses itself, so a trickling
/// pipe starts no thread. parse_errors() and parse_error_samples() count
/// only the lines before the last flow handed out, whichever thread
/// parsed them.
class NdjsonFlowSource : public FlowSource {
 public:
  /// Flows with host >= num_hosts are parse errors (the engine is
  /// sized up front; a front-end cannot grow its host table per
  /// attacker-controlled line).
  NdjsonFlowSource(std::istream& in, std::uint32_t num_hosts);
  /// Joins the parse thread, which never waits on the stream.
  ~NdjsonFlowSource() override;
  NdjsonFlowSource(const NdjsonFlowSource&) = delete;
  NdjsonFlowSource& operator=(const NdjsonFlowSource&) = delete;

  /// Rejected lines kept as samples, and the per-sample length cap.
  static constexpr std::size_t kMaxErrorSamples = 5;
  static constexpr std::size_t kMaxSampleLength = 120;

  /// Bytes the reader asks the stream for at a time. A longer line
  /// grows the buffer to hold it, up to kMaxBufferBytes.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  /// The longest line that can be a flow. A longer one is one malformed
  /// line: the reader keeps its first kMaxSampleLength bytes as the
  /// sample and drops the rest up to its '\n', so no stream, not even
  /// one that never sends a '\n', grows the buffer past kMaxBufferBytes.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;
  static constexpr std::size_t kMaxBufferBytes = kMaxLineBytes + kBlockBytes;
  /// Whole lines buffered before they go to the parse thread as a chunk.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 14;
  /// Chunks handed to the parse thread and not yet read out.
  static constexpr std::size_t kChunksInFlight = 4;

  /// Rethrows an exception the parse thread met.
  bool next(Flow& out) override;
  /// False while a parsed flow is waiting; chunks that hold only
  /// malformed lines are waited for and counted. Then buffers what the
  /// stream has ready, and is true when no whole line is buffered and
  /// nothing more is ready: a partial line is not input, as next() would
  /// wait for its end. A stdio-synced `std::cin` never reports bytes
  /// ready; `dqctl` unsyncs it.
  bool would_block() override;
  std::uint64_t parse_errors() const noexcept override {
    return parse_errors_;
  }
  const std::vector<std::string>& parse_error_samples()
      const noexcept override {
    return samples_;
  }

 private:
  /// Whole lines handed to the parse thread, and what it made of them.
  /// The router sets `bytes`, `begin` and `end` before the hand-off and
  /// reads the rest once the chunk is parsed; in between only the parse
  /// thread touches it.
  struct Chunk {
    /// A malformed line: the chunk's flows before it, and its bytes.
    struct Error {
      std::size_t flows_before;
      std::size_t begin;
      std::size_t size;
    };
    std::vector<char> bytes;  ///< bytes[begin, end) are whole lines
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<Flow> flows;
    std::vector<Error> errors;
    std::exception_ptr failure;
    std::size_t next_flow = 0;   ///< flows handed out
    std::size_t next_error = 0;  ///< errors counted
  };

  /// True when a whole line is buffered; its '\n' is then at
  /// searched_. Searches only bytes no earlier call searched.
  bool find_newline() noexcept;
  /// Appends the bytes the stream has ready, growing the buffer when a
  /// partial line fills it; with `block`, first waits for one byte.
  /// False when it took nothing from the stream. Called with fewer than
  /// kChunkBytes of whole lines buffered.
  bool fill(bool block);
  /// Cuts the partial line that fills a kMaxBufferBytes buffer to a stub
  /// that parses as malformed, and drops the line's bytes until its
  /// '\n'.
  void cut_long_line();
  /// Counts one malformed line, keeping the first few as samples.
  void count_error(std::string_view line);
  /// Hands every buffered whole line to the parse thread as one chunk,
  /// when they are at least kChunkBytes and a chunk is free.
  bool hand_off();
  /// Hands off chunks while one is free and the stream has them ready.
  void hand_off_ready();
  /// The oldest chunk in flight, once the parse thread is done with it.
  Chunk& parsed_front();
  /// Counts the chunk's malformed lines before its next flow: all that
  /// are left once its flows are handed out.
  void count_errors(Chunk& chunk);
  /// Frees the oldest chunk once its flows are handed out, counting its
  /// last malformed lines, and hands off what is ready.
  void retire(Chunk& chunk);
  void parse_loop();
  void parse_chunk(Chunk& chunk);

  std::istream& in_;
  std::uint32_t num_hosts_;
  std::uint64_t parse_errors_ = 0;
  std::vector<std::string> samples_;
  /// Bytes read but not yet handed out are buf_[begin_, end_);
  /// buf_[begin_, searched_) holds no '\n'.
  std::vector<char> buf_;
  std::size_t begin_ = 0;
  std::size_t searched_ = 0;
  std::size_t end_ = 0;
  bool cutting_ = false;  ///< dropping a cut line's bytes

  /// Chunk i lives in chunks_[i % kChunksInFlight]. The router hands
  /// off chunk handed_ and reads out chunk retired_; the parse thread
  /// has parsed chunks below parsed_, and the router last saw
  /// parsed_seen_ of them, so it locks mu_ about once per chunk.
  std::array<Chunk, kChunksInFlight> chunks_;
  std::uint64_t retired_ = 0;
  std::uint64_t parsed_seen_ = 0;
  std::mutex mu_;
  std::uint64_t handed_ = 0;  ///< written under mu_
  std::uint64_t parsed_ = 0;  ///< guarded by mu_
  bool quit_ = false;         ///< guarded by mu_
  std::condition_variable handed_cv_;
  std::condition_variable parsed_cv_;
  std::thread parser_;  ///< started at the first hand-off
};

class TraceFlowSource : public FlowSource {
 public:
  /// `speed` <= 0 replays as fast as possible; otherwise event time is
  /// paced at `speed` trace-seconds per wall-second. The trace must be
  /// finalized and carry a census (for worm labels).
  explicit TraceFlowSource(const trace::Trace& trace, double speed = 0.0);

  bool next(Flow& out) override;
  double end_time_hint() const noexcept override;
  /// Paced, and the next outbound contact is not yet due.
  bool would_block() override;

 private:
  /// Wall clock at which a paced event at trace time `time` is due.
  std::uint64_t due_ns(double time) const noexcept {
    return start_ns_ + static_cast<std::uint64_t>(time / speed_ * 1e9);
  }

  const trace::Trace& trace_;
  trace::FirstContactOracle oracle_;
  std::size_t next_event_ = 0;
  double speed_;
  std::uint64_t start_ns_ = 0;  ///< wall clock at first event (paced mode)
};

struct SyntheticConfig {
  std::uint64_t flows = 1'000'000;
  std::uint32_t hosts = 1u << 16;
  /// Leading fraction of the host id space that scans like a worm
  /// (high failure ratio, wide random destinations); these flows carry
  /// the ground-truth label.
  double worm_fraction = 0.01;
  /// Simulated seconds between consecutive flows (global arrival
  /// process; per-host rates scale as flows / hosts).
  double flow_interval = 1e-5;
  double benign_failure_prob = 0.02;
  double worm_failure_prob = 0.9;
  /// Distinct destinations a benign host cycles through.
  std::uint32_t benign_dest_pool = 8;
  std::uint64_t seed = 42;
  /// First flow index to emit. Flow i is a pure function of (seed, i),
  /// so a restored run sets this to the checkpoint's flows_ingested and
  /// replays exactly the remainder of the uninterrupted stream.
  std::uint64_t start_flow = 0;
};

class SyntheticFlowSource : public FlowSource {
 public:
  explicit SyntheticFlowSource(const SyntheticConfig& config);

  bool next(Flow& out) override;

  const SyntheticConfig& config() const noexcept { return config_; }

 private:
  SyntheticConfig config_;
  std::uint64_t next_flow_ = 0;
  std::uint32_t worm_hosts_ = 0;
};

}  // namespace dq::serve
