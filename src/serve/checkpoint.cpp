#include "serve/checkpoint.hpp"

#include <algorithm>
#include <limits>

#include "serve/failpoints.hpp"
#include "stats/file.hpp"

namespace dq::serve {

namespace {

using campaign::JsonValue;

[[noreturn]] void corrupt(const std::string& what) {
  throw CheckpointError("corrupt checkpoint: " + what);
}

const JsonValue& need(const JsonValue& json, const char* key) {
  const JsonValue* v = json.find(key);
  if (v == nullptr) corrupt(std::string("missing field '") + key + "'");
  return *v;
}

/// The members parse() reads through a tree. The host state decodes
/// straight into typed arrays, and any other member is skipped.
constexpr std::string_view kTreeMembers[] = {
    "format", "version", "num_hosts", "flows_ingested", "last_time",
    "time_regressions", "parse_errors", "parse_error_samples",
    "shed_flows", "quarantine_events", "quarantine_config"};

}  // namespace

std::string CheckpointState::dump() const {
  std::string out;
  // ~16 bytes per host column entry across 14 columns.
  out.reserve(256 + label_time.size() * 4 + hosts.records.size() * 72 +
              (store ? store->pool.size() * 20 : 0));
  campaign::JsonWriter w(out);
  w.begin_object()
      .key("format").str("dq_serve_checkpoint")
      .key("version").integer(kCheckpointVersion)
      .key("num_hosts").integer(num_hosts)
      .key("flows_ingested").integer(flows_ingested)
      .key("last_time").number(last_time)
      .key("time_regressions").integer(time_regressions)
      .key("parse_errors").integer(parse_errors)
      .key("parse_error_samples").begin_array();
  for (const std::string& s : parse_error_samples) w.str(s);
  w.end_array()
      .key("shed_flows").integer(shed_flows)
      .key("quarantine_events").integer(quarantine_events)
      .key("quarantine_config").value(config)
      .key("label_time").begin_array();
  for (const double t : label_time) w.number(t);
  w.end_array().key("hosts");
  quarantine::write_host_arrays(w, hosts);
  if (store) {
    w.key("estimator_store");
    quarantine::write_store(w, *store);
  }
  w.end_object();
  return out;
}

CheckpointState CheckpointState::parse(std::string_view text) {
  using Token = campaign::JsonReader::Token;
  try {
    campaign::JsonReader in(text);
    if (in.next() != Token::kBeginObject)
      corrupt("document is not an object");
    CheckpointState state;
    JsonValue json = JsonValue::object();  // the small members
    bool have_labels = false, have_hosts = false;
    while (in.next() == Token::kKey) {
      const std::string key(in.as_string());
      const Token first = in.next();
      if (key == "label_time") {
        if (first != Token::kBeginArray) corrupt("label_time is not an array");
        const JsonValue* n = json.find("num_hosts");
        state.label_time.clear();
        state.label_time.reserve(in.room_for(n != nullptr ? n->as_uint() : 0));
        for (Token t = in.next(); t != Token::kEndArray; t = in.next())
          state.label_time.push_back(in.as_number());
        have_labels = true;
      } else if (key == "hosts") {
        state.hosts = quarantine::read_host_arrays(in, first);
        have_hosts = true;
      } else if (key == "estimator_store") {
        // Present only for shared-bitmap runs; the server validates it
        // against its own engine geometry on restore.
        state.store = quarantine::read_store(in, first);
      } else if (std::ranges::find(kTreeMembers, key) !=
                 std::end(kTreeMembers)) {
        json.set(key, in.tree(first));
      } else {
        in.skip(first);
      }
    }
    in.next();  // kEnd, or throws on trailing characters

    const JsonValue* format = json.find("format");
    if (format == nullptr || format->as_string() != "dq_serve_checkpoint")
      corrupt("not a dq serve checkpoint (missing format tag)");
    if (need(json, "version").as_uint() != kCheckpointVersion)
      corrupt("unsupported checkpoint version");
    const std::uint64_t num_hosts = need(json, "num_hosts").as_uint();
    if (num_hosts == 0 || num_hosts > std::numeric_limits<std::uint32_t>::max())
      corrupt("num_hosts must be in [1, 2^32)");
    state.num_hosts = static_cast<std::uint32_t>(num_hosts);
    state.flows_ingested = need(json, "flows_ingested").as_uint();
    state.last_time = need(json, "last_time").as_number();
    state.time_regressions = need(json, "time_regressions").as_uint();
    state.parse_errors = need(json, "parse_errors").as_uint();
    for (const JsonValue& s :
         need(json, "parse_error_samples").items())
      state.parse_error_samples.push_back(s.as_string());
    state.shed_flows = need(json, "shed_flows").as_uint();
    state.quarantine_events = need(json, "quarantine_events").as_uint();
    state.config = need(json, "quarantine_config");
    if (!have_labels) corrupt("missing field 'label_time'");
    if (state.label_time.size() != state.num_hosts)
      corrupt("label_time length mismatch");
    if (!have_hosts) corrupt("missing field 'hosts'");
    if (state.hosts.records.size() != state.num_hosts)
      corrupt("host state length mismatch");
    return state;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // Bad JSON, or type errors (as_uint on a string, …) in it.
    corrupt(e.what());
  }
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointState& state) {
  std::string bytes = state.dump();
  bytes += '\n';
  if (Failpoints::global().active() &&
      Failpoints::global().consume_torn_checkpoint())
    bytes.resize(bytes.size() / 2);

  replace_file(path, bytes);
}

CheckpointState load_checkpoint_file(const std::string& path) {
  std::string bytes;
  try {
    bytes = read_file(path);
  } catch (const std::exception& e) {
    throw CheckpointError(e.what());
  }
  try {
    return CheckpointState::parse(bytes);
  } catch (const CheckpointError& e) {
    throw CheckpointError(std::string(e.what()) + " (" + path + ")");
  }
}

}  // namespace dq::serve
