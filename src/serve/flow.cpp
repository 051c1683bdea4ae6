#include "serve/flow.hpp"

#include <charconv>
#include <cstring>

#include "obs/events.hpp"

namespace dq::serve {

namespace {

constexpr bool is_ws(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}
constexpr bool is_digit(char c) noexcept { return c >= '0' && c <= '9'; }
constexpr bool is_hex(char c) noexcept {
  return is_digit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/// One forward pass over a flow line: each method consumes one token
/// and reports whether it was well formed. Nothing recurses — a nested
/// value is simply not a token any method accepts.
class FlowScanner {
 public:
  explicit FlowScanner(std::string_view line) noexcept
      : p_(line.data()), end_(line.data() + line.size()) {}

  bool scan(std::uint32_t num_hosts, Flow& flow) noexcept {
    enum : unsigned { kT = 1, kHost = 2, kDest = 4, kFailed = 8, kWorm = 16 };
    constexpr unsigned kRequired = kT | kHost | kDest;
    unsigned seen = 0;
    skip_ws();
    if (!eat('{')) return false;
    do {
      skip_ws();
      if (!eat('"')) return false;
      // Keys are compared as raw bytes, so a key containing an escape is
      // rejected: decoded, it could alias a field.
      const char* key = p_;
      bool escaped = false;
      if (!string_rest(escaped) || escaped) return false;
      const std::string_view name(key, static_cast<std::size_t>(p_ - 1 - key));
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      const unsigned field = name == "t"        ? kT
                             : name == "host"   ? kHost
                             : name == "dest"   ? kDest
                             : name == "failed" ? kFailed
                             : name == "worm"   ? kWorm
                                                : 0u;
      if ((seen & field) != 0) return false;  // duplicate key
      seen |= field;
      bool ok = false;
      switch (field) {
        case kT:
          ok = number(flow.time) && flow.time >= 0.0;
          break;
        case kHost: {
          std::uint64_t host = 0;
          ok = unsigned_integer(host) && host < num_hosts;
          flow.host = static_cast<std::uint32_t>(host);
          break;
        }
        case kDest:
          ok = unsigned_integer(flow.dest);
          break;
        case kFailed:
          ok = boolean(flow.failed);
          break;
        case kWorm:
          ok = boolean(flow.labeled_worm);
          break;
        default:
          ok = scalar();
      }
      if (!ok) return false;
      skip_ws();
    } while (eat(','));
    if (!eat('}')) return false;
    skip_ws();
    return p_ == end_ && (seen & kRequired) == kRequired;
  }

 private:
  void skip_ws() noexcept {
    while (p_ != end_ && is_ws(*p_)) ++p_;
  }
  bool eat(char c) noexcept {
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }
  bool literal(std::string_view word) noexcept {
    if (static_cast<std::size_t>(end_ - p_) < word.size() ||
        std::memcmp(p_, word.data(), word.size()) != 0)
      return false;
    p_ += word.size();
    return true;
  }
  bool digits() noexcept {
    const char* start = p_;
    while (p_ != end_ && is_digit(*p_)) ++p_;
    return p_ != start;
  }

  /// A JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
  /// converted by from_chars (which fails on overflow).
  bool number(double& out) noexcept {
    const char* start = p_;
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    const auto [ptr, ec] = std::from_chars(start, p_, out);
    return ec == std::errc{} && ptr == p_;
  }
  /// Digits only, no leading zero, at most 2^64-1. A fraction or an
  /// exponent is left unread, so the caller rejects it as a stray byte.
  bool unsigned_integer(std::uint64_t& out) noexcept {
    const char* start = p_;
    if (!eat('0') && !digits()) return false;
    return std::from_chars(start, p_, out).ec == std::errc{};
  }
  bool boolean(bool& out) noexcept {
    if (literal("true")) {
      out = true;
      return true;
    }
    if (literal("false")) {
      out = false;
      return true;
    }
    return false;
  }
  /// The rest of a string after its opening quote: no raw control
  /// bytes, only JSON's escapes. Sets `escaped` when it saw one.
  bool string_rest(bool& escaped) noexcept {
    while (p_ != end_) {
      const auto c = static_cast<unsigned char>(*p_++);
      if (c == '"') return true;
      if (c < 0x20) return false;
      if (c != '\\') continue;
      escaped = true;
      if (p_ == end_) return false;
      switch (*p_++) {
        case '"': case '\\': case '/': case 'b':
        case 'f': case 'n': case 'r': case 't':
          break;
        case 'u':
          for (int i = 0; i < 4; ++i, ++p_)
            if (p_ == end_ || !is_hex(*p_)) return false;
          break;
        default:
          return false;
      }
    }
    return false;
  }
  /// The value of an unknown key: any scalar, never an array or object.
  bool scalar() noexcept {
    if (p_ == end_) return false;
    switch (*p_) {
      case '"': {
        ++p_;
        bool escaped = false;
        return string_rest(escaped);
      }
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: {
        double ignored = 0.0;
        return number(ignored);
      }
    }
  }

  const char* p_;
  const char* end_;
};

// Decision line fragments in output order, and the widest value each
// slot can hold: 20 digits for a uint64, 10 for a uint32, 24 for a
// shortest round-trip double ("-2.2250738585072014e-308"), "false",
// and the longest names to_string(Action) and obs::to_string(QState)
// return ("throttle", "quarantined").
constexpr std::string_view kSeqKey = "{\"seq\":";
constexpr std::string_view kTimeKey = ",\"t\":";
constexpr std::string_view kHostKey = ",\"host\":";
constexpr std::string_view kDestKey = ",\"dest\":";
constexpr std::string_view kFailedKey = ",\"failed\":";
constexpr std::string_view kActionKey = ",\"action\":\"";
constexpr std::string_view kStateKey = "\",\"state\":\"";
constexpr std::string_view kLineEnd = "\"}\n";
constexpr std::size_t kU64Digits = 20;
constexpr std::size_t kU32Digits = 10;
constexpr std::size_t kDoubleChars = 24;
static_assert(kSeqKey.size() + kU64Digits + kTimeKey.size() + kDoubleChars +
                  kHostKey.size() + kU32Digits + kDestKey.size() +
                  kU64Digits + kFailedKey.size() +
                  std::string_view("false").size() + kActionKey.size() +
                  std::string_view("throttle").size() + kStateKey.size() +
                  std::string_view("quarantined").size() + kLineEnd.size() ==
              kMaxDecisionLineBytes);

char* put(char* p, std::string_view s) noexcept {
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

}  // namespace

const char* to_string(Action action) noexcept {
  switch (action) {
    case Action::kAllow:
      return "allow";
    case Action::kDrop:
      return "drop";
    case Action::kThrottle:
      return "throttle";
  }
  return "unknown";
}

bool parse_flow_line(std::string_view line, std::uint32_t num_hosts,
                     Flow& out) noexcept {
  Flow flow;
  if (!FlowScanner(line).scan(num_hosts, flow)) return false;
  out = flow;
  return true;
}

std::size_t format_decision_line(const Decision& d, char* buf) noexcept {
  char* p = put(buf, kSeqKey);
  p = std::to_chars(p, p + kU64Digits, d.seq).ptr;
  p = put(p, kTimeKey);
  p = std::to_chars(p, p + kDoubleChars, d.time).ptr;
  p = put(p, kHostKey);
  p = std::to_chars(p, p + kU32Digits, d.host).ptr;
  p = put(p, kDestKey);
  p = std::to_chars(p, p + kU64Digits, d.dest).ptr;
  p = put(p, kFailedKey);
  p = put(p, d.failed ? "true" : "false");
  p = put(p, kActionKey);
  p = put(p, to_string(static_cast<Action>(d.action)));
  p = put(p, kStateKey);
  p = put(p, obs::to_string(static_cast<obs::QState>(d.state)));
  p = put(p, kLineEnd);
  return static_cast<std::size_t>(p - buf);
}

void append_decision_line(const Decision& d, std::string& out) {
  char buf[kMaxDecisionLineBytes];
  out.append(buf, format_decision_line(d, buf));
}

}  // namespace dq::serve
