#include "serve/source.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/span.hpp"
#include "stats/hash.hpp"

namespace dq::serve {

namespace {

bool is_worm_category(trace::HostCategory c) noexcept {
  return c == trace::HostCategory::kWormBlaster ||
         c == trace::HostCategory::kWormWelchia;
}

}  // namespace

NdjsonFlowSource::NdjsonFlowSource(std::istream& in, std::uint32_t num_hosts)
    : in_(in), num_hosts_(num_hosts), buf_(kBlockBytes) {}

NdjsonFlowSource::~NdjsonFlowSource() {
  if (!parser_.joinable()) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  handed_cv_.notify_one();
  parser_.join();
}

bool NdjsonFlowSource::find_newline() noexcept {
  const char* data = buf_.data();
  const void* nl = std::memchr(data + searched_, '\n', end_ - searched_);
  searched_ = nl != nullptr ? static_cast<const char*>(nl) - data : end_;
  return nl != nullptr;
}

bool NdjsonFlowSource::fill(bool block) {
  // Buffered here are a partial line and under kChunkBytes of whole
  // ones. They move to the front once: a line that grows over many calls
  // is already there. A full buffer then holds a line that needs room;
  // one that fills kMaxBufferBytes is longer than kMaxLineBytes.
  if (begin_ > 0)
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
  end_ -= begin_;
  searched_ -= begin_;
  begin_ = 0;
  if (end_ == buf_.size()) {
    if (end_ < kMaxBufferBytes)
      buf_.resize(std::min(2 * end_, kMaxBufferBytes));
    else
      cut_long_line();
  }
  // read() of one byte waits for input and asks for no more; readsome()
  // takes only what in_avail() reports, so it never blocks.
  const std::size_t before = end_;
  if (block) {
    if (!in_.read(buf_.data() + end_, 1)) return false;
    ++end_;
  }
  const auto room = static_cast<std::streamsize>(buf_.size() - end_);
  end_ += static_cast<std::size_t>(in_.readsome(buf_.data() + end_, room));
  if (end_ == before) return false;
  if (cutting_) {
    // Drop the cut line's bytes; its '\n' ends the stub.
    const char* data = buf_.data();
    const void* nl = std::memchr(data + before, '\n', end_ - before);
    if (nl == nullptr) {
      end_ = before;
    } else {
      const std::size_t at = static_cast<const char*>(nl) - data;
      std::memmove(buf_.data() + before, data + at, end_ - at);
      end_ -= at - before;
      cutting_ = false;
    }
  }
  return true;
}

void NdjsonFlowSource::cut_long_line() {
  // Whole lines fill under kChunkBytes of the buffer, so the partial
  // line after them is longer than kMaxLineBytes. The stub keeps its
  // sample and ends in a NUL byte, which no flow line holds outside a
  // string and no string holds raw: whichever thread parses it counts
  // it as malformed, in its place among the lines.
  const std::size_t last = std::string_view(buf_.data(), end_).rfind('\n');
  const std::size_t line = last == std::string_view::npos ? 0 : last + 1;
  end_ = line + kMaxSampleLength;
  buf_[end_++] = '\0';
  searched_ = std::min(searched_, end_);
  cutting_ = true;
}

void NdjsonFlowSource::count_error(std::string_view line) {
  ++parse_errors_;
  if (samples_.size() < kMaxErrorSamples)
    samples_.emplace_back(line.substr(0, kMaxSampleLength));
}

namespace {

enum class LineKind { kFlow, kBlank, kError };

/// Parses one line into `out`. Strips a trailing '\r' from `line` first:
/// CRLF input is tolerated, and a bare '\r' line is blank.
LineKind parse_line(std::string_view& line, std::uint32_t num_hosts,
                    Flow& out) noexcept {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return LineKind::kBlank;
  return line.size() <= NdjsonFlowSource::kMaxLineBytes &&
                 parse_flow_line(line, num_hosts, out)
             ? LineKind::kFlow
             : LineKind::kError;
}

}  // namespace

bool NdjsonFlowSource::hand_off() {
  if (handed_ - retired_ == kChunksInFlight || end_ - begin_ < kChunkBytes)
    return false;
  // The last '\n' is past searched_, if there is one, so a partial line
  // that grows over many calls is searched once.
  const std::size_t last =
      std::string_view(buf_.data() + searched_, end_ - searched_).rfind('\n');
  if (last == std::string_view::npos) {
    searched_ = end_;
    return false;
  }
  const std::size_t lines_end = searched_ + last + 1;
  if (lines_end - begin_ < kChunkBytes) return false;
  if (!parser_.joinable()) parser_ = std::thread([this] { parse_loop(); });
  // The chunk takes the buffer, whole lines and all; the buffer it held
  // becomes the reader's and gets the partial line after them.
  Chunk& chunk = chunks_[handed_ % kChunksInFlight];
  chunk.bytes.swap(buf_);
  chunk.begin = begin_;
  chunk.end = lines_end;
  chunk.next_flow = chunk.next_error = 0;
  if (buf_.size() < chunk.bytes.size()) buf_.resize(chunk.bytes.size());
  end_ -= lines_end;
  std::memcpy(buf_.data(), chunk.bytes.data() + lines_end, end_);
  begin_ = 0;
  searched_ = end_;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++handed_;
  }
  handed_cv_.notify_one();
  return true;
}

void NdjsonFlowSource::hand_off_ready() {
  while (handed_ - retired_ < kChunksInFlight)
    if (!hand_off() && !(fill(false) && hand_off())) return;
}

NdjsonFlowSource::Chunk& NdjsonFlowSource::parsed_front() {
  if (parsed_seen_ <= retired_) {
    std::unique_lock<std::mutex> lock(mu_);
    parsed_cv_.wait(lock, [this] { return parsed_ > retired_; });
    parsed_seen_ = parsed_;
  }
  return chunks_[retired_ % kChunksInFlight];
}

void NdjsonFlowSource::count_errors(Chunk& chunk) {
  for (; chunk.next_error < chunk.errors.size() &&
         chunk.errors[chunk.next_error].flows_before <= chunk.next_flow;
       ++chunk.next_error) {
    const Chunk::Error& e = chunk.errors[chunk.next_error];
    count_error({chunk.bytes.data() + e.begin, e.size});
  }
}

void NdjsonFlowSource::retire(Chunk& chunk) {
  count_errors(chunk);
  ++retired_;
  hand_off_ready();
}

void NdjsonFlowSource::parse_loop() {
  for (std::uint64_t i = 0;; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      handed_cv_.wait(lock, [&] { return quit_ || handed_ > i; });
      if (quit_) return;
    }
    Chunk& chunk = chunks_[i % kChunksInFlight];
    try {
      parse_chunk(chunk);
    } catch (...) {
      chunk.failure = std::current_exception();
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      parsed_ = i + 1;
    }
    parsed_cv_.notify_one();
  }
}

void NdjsonFlowSource::parse_chunk(Chunk& chunk) {
  chunk.flows.clear();
  chunk.errors.clear();
  chunk.failure = nullptr;
  const char* data = chunk.bytes.data();
  for (std::size_t begin = chunk.begin; begin < chunk.end;) {
    const auto* nl = static_cast<const char*>(
        std::memchr(data + begin, '\n', chunk.end - begin));
    std::string_view line(data + begin, nl - (data + begin));
    begin = nl + 1 - data;
    Flow flow;
    const LineKind kind = parse_line(line, num_hosts_, flow);
    if (kind == LineKind::kFlow)
      chunk.flows.push_back(flow);
    else if (kind == LineKind::kError)
      chunk.errors.push_back({chunk.flows.size(),
                              static_cast<std::size_t>(line.data() - data),
                              line.size()});
  }
}

bool NdjsonFlowSource::next(Flow& out) {
  while (true) {
    if (retired_ < handed_) {
      Chunk& chunk = parsed_front();
      if (chunk.failure) std::rethrow_exception(chunk.failure);
      if (chunk.next_flow == chunk.flows.size()) {
        retire(chunk);
        continue;
      }
      count_errors(chunk);
      out = chunk.flows[chunk.next_flow++];
      return true;
    }
    std::string_view line;
    if (find_newline()) {
      line = {buf_.data() + begin_, searched_ - begin_};
      begin_ = searched_ = searched_ + 1;
    } else if (fill(false) || fill(true)) {
      hand_off_ready();
      continue;
    } else if (begin_ < end_) {  // the last line, with no '\n'
      line = {buf_.data() + begin_, end_ - begin_};
      begin_ = searched_ = end_;
    } else {
      return false;
    }
    const LineKind kind = parse_line(line, num_hosts_, out);
    if (kind == LineKind::kFlow) return true;
    if (kind == LineKind::kError) count_error(line);
  }
}

bool NdjsonFlowSource::would_block() {
  while (true) {
    if (retired_ < handed_) {
      Chunk& chunk = parsed_front();
      if (chunk.failure || chunk.next_flow < chunk.flows.size()) return false;
      retire(chunk);
    } else if (find_newline()) {
      return false;
    } else if (fill(false)) {
      hand_off_ready();
    } else {
      return in_.rdbuf() != nullptr && in_.rdbuf()->in_avail() <= 0;
    }
  }
}

TraceFlowSource::TraceFlowSource(const trace::Trace& trace, double speed)
    : trace_(trace), speed_(speed) {
  if (!trace_.finalized())
    throw std::invalid_argument("TraceFlowSource: trace not finalized");
  if (trace_.num_hosts() == 0)
    throw std::invalid_argument("TraceFlowSource: trace has no census");
}

double TraceFlowSource::end_time_hint() const noexcept {
  return next_event_ >= trace_.events().size() ? trace_.duration() : -1.0;
}

bool TraceFlowSource::would_block() {
  // Unpaced, or the first contact (which starts the clock) not yet read.
  if (speed_ <= 0.0 || start_ns_ == 0) return false;
  const auto& events = trace_.events();
  for (std::size_t i = next_event_; i < events.size(); ++i)
    if (events[i].type == trace::EventType::kOutboundContact)
      return due_ns(events[i].time) > obs::span_clock_ns();
  return false;
}

bool TraceFlowSource::next(Flow& out) {
  const auto& events = trace_.events();
  const auto& categories = trace_.host_categories();
  while (next_event_ < events.size()) {
    const trace::TraceEvent& e = events[next_event_++];
    if (e.host >= trace_.num_hosts())
      throw std::invalid_argument(
          "TraceFlowSource: event host outside census");
    const bool failed = oracle_.observe(e);
    if (e.type != trace::EventType::kOutboundContact) continue;
    if (speed_ > 0.0) {
      if (start_ns_ == 0) start_ns_ = obs::span_clock_ns();
      const std::uint64_t due = due_ns(e.time);
      const std::uint64_t now = obs::span_clock_ns();
      if (due > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    out = Flow{};
    out.time = e.time;
    out.host = e.host;
    out.dest = e.remote;
    out.failed = failed;
    out.labeled_worm = is_worm_category(categories[e.host]);
    return true;
  }
  return false;
}

SyntheticFlowSource::SyntheticFlowSource(const SyntheticConfig& config)
    : config_(config) {
  if (config_.hosts == 0)
    throw std::invalid_argument("SyntheticFlowSource: hosts must be > 0");
  if (config_.benign_dest_pool == 0)
    throw std::invalid_argument(
        "SyntheticFlowSource: benign_dest_pool must be > 0");
  worm_hosts_ = static_cast<std::uint32_t>(
      static_cast<double>(config_.hosts) * config_.worm_fraction);
  next_flow_ = config_.start_flow;
}

bool SyntheticFlowSource::next(Flow& out) {
  if (next_flow_ >= config_.flows) return false;
  const std::uint64_t i = next_flow_++;
  // Three decorrelated draws per flow, all pure functions of (seed, i).
  const std::uint64_t r0 = mix64(config_.seed ^ (i * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t r1 = mix64(r0 ^ 0xd1b54a32d192ed03ULL);
  const std::uint64_t r2 = mix64(r1 ^ 0x8cb92ba72f3d8dd7ULL);

  const auto host = static_cast<std::uint32_t>(r0 % config_.hosts);
  const bool worm = host < worm_hosts_;
  out = Flow{};
  out.time = static_cast<double>(i) * config_.flow_interval;
  out.host = host;
  out.dest = worm ? r1
                  : static_cast<std::uint64_t>(host) *
                            config_.benign_dest_pool +
                        r1 % config_.benign_dest_pool;
  // 53-bit uniform in [0,1) from r2, same recipe as Rng::uniform.
  const double u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
  out.failed =
      u < (worm ? config_.worm_failure_prob : config_.benign_failure_prob);
  out.labeled_worm = worm;
  return true;
}

}  // namespace dq::serve
