// The serve pipeline's wire records: one Flow per attempted outbound
// contact entering the service, one Decision per flow leaving it.
//
// Flow NDJSON input schema (one object per line):
//   {"t":12.5,"host":3,"dest":991,"failed":true,"worm":false}
//   - t      observation time in seconds (required, a JSON number,
//            finite, >= 0)
//   - host   monitored source host id (required, digits only,
//            < configured hosts)
//   - dest   stable destination key — IP, node id, hash (required,
//            digits only, <= 2^64-1)
//   - failed caller-defined failure signal (optional, true/false,
//            default false)
//   - worm   ground-truth label: host is worm-infected as of t
//            (optional, true/false, default false; drives the final
//            report only, never the quarantine decision)
// Each key at most once; other keys are skipped when their value is a
// string, number, true, false or null. The full grammar is in
// docs/SERVE.md.
//
// Decision NDJSON output schema (see docs/SERVE.md):
//   {"seq":1,"t":12.5,"host":3,"dest":991,"failed":true,
//    "action":"allow","state":"suspected"}
// Every field is a pure function of the flow stream, so the merged
// decision output is byte-identical at any shard count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dq::serve {

struct Flow {
  double time = 0.0;
  std::uint32_t host = 0;
  std::uint64_t dest = 0;
  bool failed = false;
  bool labeled_worm = false;
  /// Assigned by the router: global 1-based ingest sequence number.
  std::uint64_t seq = 0;
  /// Assigned by the router: steady-clock ns at ingest, for the
  /// decision-latency histogram (wall-clock; never serialized).
  std::uint64_t ingest_ns = 0;
};

/// What the quarantine boundary did with the flow: kAllow passed it,
/// kDrop/kThrottle reflect the source being quarantined at arrival
/// under the configured treatment. A flow that *triggers* quarantine
/// is still kAllow — it was observed before the state changed, same as
/// the engine's semantics in the simulator and replay.
enum class Action : std::uint8_t { kAllow = 0, kDrop = 1, kThrottle = 2 };

const char* to_string(Action action) noexcept;

struct Decision {
  std::uint64_t seq = 0;
  double time = 0.0;
  std::uint32_t host = 0;
  std::uint64_t dest = 0;
  std::uint8_t action = 0;  ///< Action
  std::uint8_t state = 0;   ///< quarantine::HostQState after observe
  bool failed = false;
};

/// Parses one NDJSON flow line in a single pass, without allocating or
/// recursing. Returns false on anything malformed — bad JSON, wrong
/// types, missing or duplicate fields, a nested value, non-finite or
/// negative time, host >= num_hosts — and leaves `out` untouched;
/// never throws. Blank lines are malformed (the caller skips genuinely
/// empty lines before parsing).
bool parse_flow_line(std::string_view line, std::uint32_t num_hosts,
                     Flow& out) noexcept;

/// Longest line format_decision_line can write, '\n' included: every
/// number at its widest and the longest action and state names.
inline constexpr std::size_t kMaxDecisionLineBytes = 161;

/// Writes the canonical decision NDJSON line (including '\n') into
/// `buf`, which must hold kMaxDecisionLineBytes, and returns its
/// length. Numbers render in shortest round-trip form (the same bytes
/// as campaign::format_double), so equal decisions are equal bytes.
std::size_t format_decision_line(const Decision& d, char* buf) noexcept;

/// Appends format_decision_line's bytes to `out`.
void append_decision_line(const Decision& d, std::string& out);

}  // namespace dq::serve
