#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace dqb {

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 10;
  double sum = 0.0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

Tail tail_of(std::vector<double>& v) {
  Tail t;
  if (v.size() <= 10) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.value = v[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * (1.0 - 10.0 / static_cast<double>(n));
  return t;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kb = std::strtod(line.c_str() + 6, nullptr);
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

inline std::uint64_t mix_word(std::uint64_t h, std::uint64_t w) noexcept {
  h ^= w;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 29);
}

}  // namespace

void StreamHash::update(const char* data, std::size_t n) noexcept {
  total_ += n;
  while (n > 0 && carry_len_ != 0) {
    carry_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(*data))
              << (8 * carry_len_);
    ++data;
    --n;
    if (++carry_len_ == 8) {
      h_ = mix_word(h_, carry_);
      carry_ = 0;
      carry_len_ = 0;
    }
  }
  while (n >= 8) {
    std::uint64_t w;
    std::memcpy(&w, data, 8);
    h_ = mix_word(h_, w);
    data += 8;
    n -= 8;
  }
  for (std::size_t i = 0; i < n; ++i)
    carry_ |= static_cast<std::uint64_t>(static_cast<unsigned char>(data[i]))
              << (8 * carry_len_++);
}

std::uint64_t StreamHash::digest() const noexcept {
  return mix_word(mix_word(h_, carry_), total_);
}

std::int64_t Tracer::add(SpanRec span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::uint64_t Tracer::import_buffer(const dq::obs::SpanBuffer& buffer,
                                    const std::string& prefix,
                                    const std::string& track,
                                    const std::vector<std::int64_t>& parents,
                                    std::int64_t fallback, std::uint32_t run) {
  if (!enabled_) return 0;
  std::vector<std::pair<std::uint64_t, std::int64_t>> starts;
  for (const std::int64_t id : parents)
    starts.emplace_back(spans_[static_cast<std::size_t>(id)].start_ns, id);
  for (const dq::obs::SpanRecord& r : buffer.spans()) {
    std::int64_t parent = fallback;
    auto it = std::upper_bound(
        starts.begin(), starts.end(), r.start_ns,
        [](std::uint64_t t, const auto& p) { return t < p.first; });
    if (it != starts.begin()) {
      const std::int64_t cand = std::prev(it)->second;
      if (r.start_ns <= spans_[static_cast<std::size_t>(cand)].end_ns)
        parent = cand;
    }
    SpanRec s;
    s.name = prefix + r.name;
    s.track = track;
    s.start_ns = r.start_ns;
    s.end_ns = r.start_ns + r.dur_ns;
    s.dur_ns = r.dur_ns;
    s.parent = parent;
    s.run = run;
    add(std::move(s));
  }
  return buffer.dropped();
}

std::map<std::string, double> Tracer::self_seconds(long run) const {
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = static_cast<double>(spans_[i].dur_ns);
  for (const SpanRec& s : spans_) {
    if (s.parent < 0) continue;
    const SpanRec& p = spans_[static_cast<std::size_t>(s.parent)];
    if (p.track == s.track)
      self[static_cast<std::size_t>(s.parent)] -= static_cast<double>(s.dur_ns);
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (run >= 0 && spans_[i].run != static_cast<std::uint32_t>(run)) continue;
    out[spans_[i].name] += self[i] * 1e-9;
  }
  return out;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

void Tracer::write_ndjson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << json_escape(s.name)
        << "\",\"track\":\"" << json_escape(s.track)
        << "\",\"run\":" << s.run << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"dur_ns\":" << s.dur_ns << ",\"count\":" << s.count << "}\n";
  }
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    const std::string& note) {
  metrics_.push_back({name, value, unit, samples, note});
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::note(const std::string& text) { notes_.push_back(text); }

void Report::series(const std::string& name,
                    const std::vector<double>& values) {
  std::string text = name + " per repetition:";
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.6g", v);
    text += buf;
  }
  note(text);
}

void Report::attempted(std::uint64_t n, std::uint64_t failed) {
  attempted_ += n;
  failed_ += failed;
}

bool Report::ok() const noexcept {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

int Report::finish(const std::string& workload) const {
  std::printf("# workload %s\n", workload.c_str());
  for (const Check& c : checks_)
    std::printf("check %s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.c_str());
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Entry& m : metrics_) {
    std::printf("%s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%zu", m.samples);
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
  std::printf("fail_ratio %.6g ratio n=%llu\n",
              attempted_ > 0 ? static_cast<double>(failed_) /
                                   static_cast<double>(attempted_)
                             : 1.0,
              static_cast<unsigned long long>(attempted_));
  const bool good = ok() && attempted_ > 0;
  std::string json = "{\"correct\":";
  json += good ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(attempted_);
  json += ",\"failed\":" + std::to_string(failed_);
  json += ",\"metrics\":{";
  bool first = true;
  for (const Entry& m : metrics_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    if (!first) json += ',';
    first = false;
    json += '"';
    json += json_escape(m.name);
    json += "\":{\"value\":";
    json += value;
    json += ",\"unit\":\"";
    json += json_escape(m.unit);
    json += "\"}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  std::fflush(stdout);
  return good ? 0 : 1;
}

void repeat_for(double seconds, std::uint64_t start_ns, std::size_t min_reps,
                std::size_t max_reps,
                const std::function<void(std::size_t)>& rep) {
  // Another repetition starts only if, at the length of the last one, it
  // would end nearer the deadline than stopping now does.
  double last_s = 0.0;
  for (std::size_t i = 0; i < max_reps; ++i) {
    if (i >= min_reps && seconds_since(start_ns) + last_s / 2 >= seconds)
      break;
    const std::uint64_t t = now_ns();
    rep(i);
    last_s = seconds_since(t);
  }
}

void report_latency(Report& report, std::vector<double>& samples_ms,
                    const std::string& what) {
  const std::size_t n = samples_ms.size();
  report.metric("latency_p50_ms", percentile(samples_ms, 0.50), "ms", n, what);
  report.metric("latency_p99_ms", percentile(samples_ms, 0.99), "ms", n);
  if (n > 10) {
    const Tail t = tail_of(samples_ms);
    char note[64];
    std::snprintf(note, sizeof note, "p%.6g with 10 samples beyond",
                  t.percentile);
    report.metric("latency_tail_ms", t.value, "ms", n, note);
  }
}

}  // namespace dqb
