#include "serve/checkpoint.hpp"

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

CheckpointState CheckpointState::from_json(const JsonValue& json) {
  try {
    if (json.kind() != JsonValue::Kind::kObject)
      corrupt("document is not an object");
    const JsonValue* format = json.find("format");
    if (format == nullptr || format->as_string() != "dq_serve_checkpoint")
      corrupt("not a dq serve checkpoint (missing format tag)");
    if (need(json, "version").as_uint() != kCheckpointVersion)
      corrupt("unsupported checkpoint version");

    CheckpointState state;
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
    const JsonValue& labels = need(json, "label_time");
    if (labels.size() != state.num_hosts)
      corrupt("label_time length mismatch");
    state.label_time.reserve(state.num_hosts);
    for (const JsonValue& t : labels.items())
      state.label_time.push_back(t.as_number());
    state.hosts = quarantine::host_arrays_from_json(need(json, "hosts"));
    if (state.hosts.records.size() != state.num_hosts)
      corrupt("host state length mismatch");
    // Present only for shared-bitmap runs; the server validates it
    // against its own engine geometry on restore.
    if (const JsonValue* store = json.find("estimator_store"))
      state.store = quarantine::store_arrays_from_json(*store);
    return state;
  } catch (const CheckpointError&) {
    throw;
  } catch (const std::exception& e) {
    // JSON type errors (as_uint on a string, …) from malformed input.
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
  JsonValue json;
  try {
    json = JsonValue::parse(bytes);
  } catch (const std::exception& e) {
    throw CheckpointError("corrupt checkpoint " + path + ": " + e.what());
  }
  try {
    return CheckpointState::from_json(json);
  } catch (const CheckpointError& e) {
    throw CheckpointError(std::string(e.what()) + " (" + path + ")");
  }
}

}  // namespace dq::serve
