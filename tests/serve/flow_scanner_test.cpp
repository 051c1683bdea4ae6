// Differential tests for the serve wire formats.
//
// parse_flow_line is a single-pass scanner; reference_parse below is
// the JsonValue-based parser it replaced, kept as the oracle. A seeded
// mutation fuzzer holds the scanner to a subset of the reference: every
// line the scanner accepts, the reference accepts with the same Flow,
// and lines that differ only in whitespace or key order are accepted by
// both. The hostile-input matrix pins each place where the two differ
// on purpose. format_decision_line is checked the same way against the
// std::to_string / format_double formatter it replaced.
#include "serve/flow.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/json.hpp"
#include "obs/events.hpp"
#include "serve/source.hpp"

namespace dq::serve {
namespace {

using campaign::JsonValue;

constexpr std::uint32_t kHosts = 1u << 20;

/// The JsonValue-based parser parse_flow_line replaced.
bool reference_parse(std::string_view line, std::uint32_t num_hosts,
                     Flow& out) {
  try {
    const JsonValue v = JsonValue::parse(line);
    if (v.kind() != JsonValue::Kind::kObject) return false;
    const JsonValue* t = v.find("t");
    const JsonValue* host = v.find("host");
    const JsonValue* dest = v.find("dest");
    if (t == nullptr || host == nullptr || dest == nullptr) return false;
    const double time = t->as_number();
    if (!std::isfinite(time) || time < 0.0) return false;
    const double host_num = host->as_number();
    if (host_num < 0.0 || host_num >= static_cast<double>(num_hosts))
      return false;
    Flow flow;
    flow.time = time;
    flow.host = static_cast<std::uint32_t>(host_num);
    flow.dest = dest->as_uint();
    if (const JsonValue* failed = v.find("failed"))
      flow.failed = failed->as_bool();
    if (const JsonValue* worm = v.find("worm"))
      flow.labeled_worm = worm->as_bool();
    out = flow;
    return true;
  } catch (...) {
    return false;
  }
}

/// The formatter format_decision_line replaced.
std::string reference_format(const Decision& d) {
  std::string out = "{\"seq\":";
  out += std::to_string(d.seq);
  out += ",\"t\":";
  out += campaign::format_double(d.time);
  out += ",\"host\":";
  out += std::to_string(d.host);
  out += ",\"dest\":";
  out += std::to_string(d.dest);
  out += ",\"failed\":";
  out += d.failed ? "true" : "false";
  out += ",\"action\":\"";
  out += to_string(static_cast<Action>(d.action));
  out += "\",\"state\":\"";
  out += obs::to_string(static_cast<obs::QState>(d.state));
  out += "\"}\n";
  return out;
}

/// Runs the scanner on an exact-size heap copy of `line`, so a read
/// past its end is a sanitizer error rather than a read of the
/// string's terminator.
bool scan(const std::string& line, std::uint32_t num_hosts, Flow& out) {
  const std::vector<char> exact(line.begin(), line.end());
  return parse_flow_line(std::string_view(exact.data(), exact.size()),
                         num_hosts, out);
}

bool same_flow(const Flow& a, const Flow& b) {
  return std::bit_cast<std::uint64_t>(a.time) ==
             std::bit_cast<std::uint64_t>(b.time) &&
         a.host == b.host && a.dest == b.dest && a.failed == b.failed &&
         a.labeled_worm == b.labeled_worm && a.seq == b.seq &&
         a.ingest_ns == b.ingest_ns;
}

std::string repeat(std::string_view s, std::size_t n) {
  std::string out;
  out.reserve(s.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

struct Field {
  std::string key;
  std::string value;
};

std::vector<Field> fields_of(const Flow& f) {
  return {{"t", campaign::format_double(f.time)},
          {"host", std::to_string(f.host)},
          {"dest", std::to_string(f.dest)},
          {"failed", f.failed ? "true" : "false"},
          {"worm", f.labeled_worm ? "true" : "false"}};
}

/// One JSON object; `pad()` supplies the whitespace around each token.
template <typename Pad>
std::string render(const std::vector<Field>& fields, Pad pad) {
  std::string s = pad() + "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) s += ',';
    s += pad() + "\"" + fields[i].key + "\"" + pad() + ":" + pad() +
         fields[i].value + pad();
  }
  return s + "}" + pad();
}

std::string no_pad() { return {}; }

class Fuzzer {
 public:
  explicit Fuzzer(std::uint64_t seed) : rng_(seed) {}

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }
  std::uint64_t bits() { return rng_(); }

  /// Half the stream generator's shape (t on a 1e-5 grid, benign and
  /// worm destinations), half wide values: times across the exponent
  /// range, full 64-bit destinations.
  std::vector<Flow> flows(std::size_t n) {
    SyntheticConfig cfg;
    cfg.flows = n / 2;
    cfg.hosts = kHosts;
    cfg.worm_fraction = 0.2;
    SyntheticFlowSource source(cfg);
    std::vector<Flow> out;
    Flow f;
    while (source.next(f)) out.push_back(f);
    while (out.size() < n) {
      f = Flow{};
      const double unit = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
      f.time = std::ldexp(unit, static_cast<int>(pick(120)) - 60);
      f.host = static_cast<std::uint32_t>(pick(kHosts));
      f.dest = rng_() >> pick(64);
      f.failed = (rng_() & 1) != 0;
      f.labeled_worm = (rng_() & 1) != 0;
      out.push_back(f);
    }
    return out;
  }

  std::string whitespace() {
    static const char kWs[] = {' ', '\t', '\r', '\n'};
    std::string s;
    for (std::size_t n = pick(3); n > 0; --n) s += kWs[pick(4)];
    return s;
  }

  void shuffle(std::vector<Field>& fields) {
    for (std::size_t i = fields.size(); i > 1; --i)
      std::swap(fields[i - 1], fields[pick(i)]);
  }

  /// Renders `fields` after one structural edit and/or one to three
  /// byte edits.
  std::string mutate(std::vector<Field> fields) {
    static const char* const kValues[] = {
        "3.7", "1e2", "-1", "-0", "01", "0.0", "5.0", "1.", ".5", "1e400",
        "18446744073709551615", "18446744073709551616", "4294967296",
        "1048575", "1048576", "\"5\"", "\"a\\\"b\\u00e9\"", "\"\\x\"",
        "true", "false", "null", "[]", "{}", "[1]", "{\"a\":1}", "NaN",
        "Infinity", "-1.5e3", "2E-3", "1e+2"};
    constexpr std::size_t kNumValues = sizeof(kValues) / sizeof(kValues[0]);
    const auto spot = [&](std::size_t n) {
      return fields.begin() + static_cast<std::ptrdiff_t>(pick(n));
    };
    const bool structural = pick(2) == 0;
    if (structural) {
      switch (pick(5)) {
        case 0: {  // duplicate a key, same or other value
          Field dup = fields[pick(fields.size())];
          if (pick(2) == 0) dup.value = kValues[pick(kNumValues)];
          fields.insert(spot(fields.size() + 1), dup);
          break;
        }
        case 1:  // drop a key
          fields.erase(spot(fields.size()));
          break;
        case 2:  // unknown key, any value
          fields.insert(spot(fields.size() + 1),
                        Field{"k" + std::to_string(pick(3)),
                              kValues[pick(kNumValues)]});
          break;
        case 3:  // some other value for a known key
          fields[pick(fields.size())].value = kValues[pick(kNumValues)];
          break;
        default:  // "t" spelled with an escape
          fields[0].key = "\\u0074";
      }
      if (pick(2) == 0) shuffle(fields);
    }
    const auto pad = [&] { return whitespace(); };
    std::string s =
        pick(2) == 0 ? render(fields, no_pad) : render(fields, pad);
    static const char kBytes[] = "0123456789.eE+-\"{}[],: \\utfn\t";
    const std::size_t edits = structural ? pick(3) : 1 + pick(3);
    for (std::size_t e = 0; e < edits && !s.empty(); ++e) {
      const std::size_t at = pick(s.size());
      const char byte = pick(4) == 0 ? static_cast<char>(pick(256))
                                     : kBytes[pick(sizeof(kBytes) - 1)];
      switch (pick(4)) {
        case 0: s[at] = byte; break;
        case 1: s.resize(at); break;
        case 2: s.insert(at, 1, byte); break;
        default: s.erase(at, 1);
      }
    }
    return s;
  }

 private:
  std::mt19937_64 rng_;
};

TEST(FlowScannerFuzz, AcceptsOnlyWhatTheReferenceAcceptsIdentically) {
  Fuzzer fuzz(20261016);
  std::size_t mutated = 0, accepted = 0;
  for (const Flow& flow : fuzz.flows(4000)) {
    const std::vector<Field> fields = fields_of(flow);
    // Unmutated, reordered, and reordered plus whitespace: both parsers
    // accept, with identical flows.
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<Field> reordered = fields;
      if (variant > 0) fuzz.shuffle(reordered);
      const std::string line =
          variant < 2 ? render(reordered, no_pad)
                      : render(reordered, [&] { return fuzz.whitespace(); });
      Flow a, b;
      ASSERT_TRUE(scan(line, kHosts, a)) << line;
      ASSERT_TRUE(reference_parse(line, kHosts, b)) << line;
      ASSERT_TRUE(same_flow(a, b)) << line;
      ASSERT_TRUE(same_flow(a, flow)) << line;
    }
    for (int m = 0; m < 40; ++m) {
      const std::string line = fuzz.mutate(fields);
      ++mutated;
      Flow a, b;
      if (!scan(line, kHosts, a)) continue;
      ++accepted;
      ASSERT_TRUE(reference_parse(line, kHosts, b)) << line;
      ASSERT_TRUE(same_flow(a, b)) << line;
    }
  }
  // The mutations reach both sides of the grammar.
  EXPECT_GT(accepted, mutated / 20);
  EXPECT_LT(accepted, mutated / 2);
}

TEST(FlowScannerMatrix, PinsEachIntendedDifferenceFromTheReference) {
  struct Case {
    const char* what;
    std::string line;
    bool scanner;
    bool reference;
  };
  const Case cases[] = {
      // The reference overflowed the stack here before JsonValue::parse
      // capped its depth.
      {"50k-deep nesting", repeat("{\"a\":", 50'000), false, false},
      {"fractional host", R"({"t":1,"host":3.7,"dest":2})", false, true},
      {"exponent host", R"({"t":1,"host":1e2,"dest":2})", false, true},
      {"fractional dest", R"({"t":1,"host":1,"dest":5.0})", false, true},
      {"leading zero", R"({"t":1,"host":01,"dest":2})", false, true},
      {"negative zero host", R"({"t":1,"host":-0,"dest":2})", false, true},
      // 2^64 used to reach an undefined double->uint64 cast.
      {"dest 2^64", R"({"t":1,"host":1,"dest":18446744073709551616})", false,
       false},
      {"dest 2^64-1", R"({"t":1,"host":1,"dest":18446744073709551615})", true,
       true},
      {"duplicate key", R"({"t":1,"host":1,"dest":2,"t":3})", false, true},
      {"numeric bool", R"({"t":1,"host":1,"dest":2,"failed":1})", false,
       false},
      {"nested unknown value", R"({"t":1,"host":1,"dest":2,"x":{"y":1}})",
       false, true},
      {"escaped key", R"({"\u0074":1,"host":1,"dest":2})", false, true},
      {"raw control byte", "{\"t\":1,\"host\":1,\"dest\":2,\"s\":\"a\x01\"}",
       false, true},
      {"unknown scalars",
       R"({"t":1,"host":1,"dest":2,"s":"a\"b\u00e9",)"
       R"("n":null,"b":false,"x":-1.5e3})",
       true, true},
      {"whitespace", " \t{ \"t\" : 1 , \"host\" : 1 , \"dest\" : 2 } \r", true,
       true},
      {"t overflows", R"({"t":1e999,"host":1,"dest":2})", false, false},
      {"negative t", R"({"t":-1,"host":1,"dest":2})", false, false},
      {"host out of range", R"({"t":1,"host":1048576,"dest":2})", false,
       false},
      {"trailing bytes", R"({"t":1,"host":1,"dest":2}x)", false, false},
      {"trailing comma", R"({"t":1,"host":1,"dest":2,})", false, false},
      {"missing dest", R"({"t":1,"host":1})", false, false},
      {"empty object", "{}", false, false},
  };
  for (const Case& c : cases) {
    Flow a, b;
    a.time = 7.0;  // a rejected line must leave the flow as it was
    EXPECT_EQ(scan(c.line, kHosts, a), c.scanner) << c.what;
    if (!c.scanner) {
      EXPECT_EQ(a.time, 7.0) << c.what;
    }
    EXPECT_EQ(reference_parse(c.line, kHosts, b), c.reference) << c.what;
  }

  // Through the source the deep line is one counted parse error.
  std::istringstream in(repeat("{\"a\":", 50'000) + "\n" +
                        R"({"t":1,"host":1,"dest":2})" + "\n");
  NdjsonFlowSource source(in, kHosts);
  Flow f;
  EXPECT_TRUE(source.next(f));
  EXPECT_FALSE(source.next(f));
  EXPECT_EQ(source.parse_errors(), 1u);
}

TEST(JsonParseDepth, NestingPastTheCapThrows) {
  const auto nest = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW(JsonValue::parse(nest(JsonValue::kMaxParseDepth)));
  EXPECT_THROW(JsonValue::parse(nest(JsonValue::kMaxParseDepth + 1)),
               std::invalid_argument);
  EXPECT_THROW(JsonValue::parse(repeat("{\"a\":", 50'000)),
               std::invalid_argument);
}

TEST(JsonParseDepth, AsUintRejectsValuesPast64Bits) {
  EXPECT_EQ(JsonValue::parse("18446744073709551615").as_uint(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW(JsonValue::parse("18446744073709551616").as_uint(),
               std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("1e30").as_uint(), std::invalid_argument);
}

TEST(DecisionFormat, MatchesTheReferenceFormatter) {
  Fuzzer fuzz(7);
  for (int i = 0; i < 20'000; ++i) {
    Decision d;
    d.seq = fuzz.bits() >> fuzz.pick(64);
    switch (fuzz.pick(3)) {
      case 0: d.time = static_cast<double>(i) * 1e-5; break;
      case 1: d.time = static_cast<double>(fuzz.pick(100'000)); break;
      default: d.time = std::bit_cast<double>(fuzz.bits());
    }
    if (!std::isfinite(d.time)) d.time = 0.5;
    d.host = static_cast<std::uint32_t>(fuzz.bits());
    d.dest = fuzz.bits() >> fuzz.pick(64);
    d.failed = fuzz.pick(2) == 0;
    d.action = static_cast<std::uint8_t>(fuzz.pick(3));
    d.state = static_cast<std::uint8_t>(fuzz.pick(3));
    std::string line;
    append_decision_line(d, line);
    ASSERT_EQ(line, reference_format(d));
  }
}

TEST(DecisionFormat, WidestLineFillsTheSlotExactly) {
  Decision d;
  d.seq = std::numeric_limits<std::uint64_t>::max();
  d.time = -2.2250738585072014e-308;  // longest shortest-form double
  d.host = std::numeric_limits<std::uint32_t>::max();
  d.dest = std::numeric_limits<std::uint64_t>::max();
  d.failed = false;
  d.action = static_cast<std::uint8_t>(Action::kThrottle);
  d.state = static_cast<std::uint8_t>(obs::QState::kQuarantined);
  char buf[kMaxDecisionLineBytes];
  EXPECT_EQ(format_decision_line(d, buf), kMaxDecisionLineBytes);
  // Every action and state name, out-of-range ones ("unknown")
  // included, fits.
  for (std::uint8_t action = 0; action < 4; ++action)
    for (std::uint8_t state = 0; state < 4; ++state) {
      d.action = action;
      d.state = state;
      EXPECT_LE(format_decision_line(d, buf), kMaxDecisionLineBytes);
    }
}

}  // namespace
}  // namespace dq::serve
