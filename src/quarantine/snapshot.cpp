#include "quarantine/snapshot.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>

namespace dq::quarantine {

namespace {

using campaign::JsonValue;
using campaign::JsonWriter;

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("quarantine snapshot: " + what);
}

const JsonValue& column(const JsonValue& json, const char* key,
                        std::size_t n) {
  const JsonValue* col = json.find(key);
  if (col == nullptr || col->kind() != JsonValue::Kind::kArray)
    bad(std::string("missing column '") + key + "'");
  if (col->size() != n)
    bad(std::string("column '") + key + "' length mismatch");
  return *col;
}

// One encoder (put) and one decoder (get) per field type;
// write_column/read_column pick them by the field's C++ type.

void put(JsonWriter& w, double v) { w.number(v); }
void put(JsonWriter& w, std::uint32_t v) { w.integer(v); }
void put(JsonWriter& w, std::uint64_t v) { w.integer(v); }
void put(JsonWriter& w, bool v) { w.integer(v ? 1 : 0); }
void put(JsonWriter& w, HostQState v) {
  w.integer(static_cast<std::uint8_t>(v));
}
/// Window indices are the one signed field: -1 ("no observation yet")
/// is the number -1, every real index a full-precision integer.
void put(JsonWriter& w, std::int64_t v) {
  if (v < 0)
    w.number(-1.0);
  else
    w.integer(static_cast<std::uint64_t>(v));
}

void get(const JsonValue& v, double& out) { out = v.as_number(); }
void get(const JsonValue& v, std::uint64_t& out) { out = v.as_uint(); }
void get(const JsonValue& v, std::uint32_t& out) {
  const std::uint64_t u = v.as_uint();
  if (u > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("value does not fit 32 bits");
  out = static_cast<std::uint32_t>(u);
}
void get(const JsonValue& v, bool& out) {
  const std::uint64_t u = v.as_uint();
  if (u > 1) throw std::invalid_argument("flag must be 0 or 1");
  out = u == 1;
}
void get(const JsonValue& v, HostQState& out) {
  const std::uint64_t u = v.as_uint();
  if (u > static_cast<std::uint64_t>(HostQState::kQuarantined))
    throw std::invalid_argument("state value out of range");
  out = static_cast<HostQState>(u);
}
void get(const JsonValue& v, std::int64_t& out) {
  if (v.as_number() == -1.0) {
    out = -1;
    return;
  }
  if (v.as_number() < 0.0 ||
      v.as_uint() > static_cast<std::uint64_t>(
                        std::numeric_limits<std::int64_t>::max()))
    throw std::invalid_argument(
        "window must be -1 or an integer below 2^63");
  out = static_cast<std::int64_t>(v.as_uint());
}

/// Writes `"key":[...]`, one entry per item (or per item's field).
template <typename Item, typename Proj = std::identity>
void write_column(JsonWriter& w, const char* key,
                  const std::vector<Item>& items, Proj proj = {}) {
  w.key(key).begin_array();
  for (const Item& item : items) put(w, std::invoke(proj, item));
  w.end_array();
}

/// Decodes column `key` into every item (or item's field); errors name
/// the column and the entry.
template <typename Item, typename Proj = std::identity>
void read_column(const JsonValue& json, const char* key,
                 std::vector<Item>& items, Proj proj = {}) {
  const JsonValue& col = column(json, key, items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    try {
      get(col.items()[i], std::invoke(proj, items[i]));
    } catch (const std::invalid_argument& e) {
      bad(std::string("column '") + key + "' entry " + std::to_string(i) +
          ": " + e.what());
    }
  }
}

/// The object member `key` as an unsigned integer.
std::uint64_t need_uint(const JsonValue& json, const char* key) {
  const JsonValue* v = json.find(key);
  if (v == nullptr) bad(std::string("missing ") + key);
  return v->as_uint();
}

}  // namespace

JsonValue config_to_json(const QuarantineConfig& config) {
  JsonValue d = JsonValue::object();
  d.set("window", JsonValue::number(config.detector.window));
  d.set("contact_rate_threshold",
        JsonValue::number(config.detector.contact_rate_threshold));
  d.set("distinct_dest_threshold",
        JsonValue::number(config.detector.distinct_dest_threshold));
  d.set("failure_ratio_threshold",
        JsonValue::number(config.detector.failure_ratio_threshold));
  d.set("failure_min_attempts",
        JsonValue::integer(config.detector.failure_min_attempts));

  JsonValue p = JsonValue::object();
  p.set("strikes_to_quarantine",
        JsonValue::integer(config.policy.strikes_to_quarantine));
  p.set("base_period", JsonValue::number(config.policy.base_period));
  p.set("escalation", JsonValue::number(config.policy.escalation));
  p.set("max_period", JsonValue::number(config.policy.max_period));
  p.set("treatment",
        JsonValue::str(config.policy.treatment == Treatment::kThrottle
                           ? "throttle"
                           : "drop_all"));
  p.set("throttle_rate", JsonValue::number(config.policy.throttle_rate));

  // The estimator backend is part of the config identity: restoring a
  // compact snapshot into an exact engine (or under different pool
  // geometry) must fail the config comparison, not silently diverge.
  JsonValue e = JsonValue::object();
  if (config.estimator_backend == EstimatorBackend::kSharedBitmap) {
    e.set("backend", JsonValue::str("shared_bitmap"));
    e.set("block_hosts", JsonValue::integer(config.compact.block_hosts));
    e.set("pool_bits_per_host",
          JsonValue::integer(config.compact.pool_bits_per_host));
    e.set("virtual_bits", JsonValue::integer(config.compact.virtual_bits));
    e.set("seed", JsonValue::integer(config.compact.seed));
  } else {
    e.set("backend", JsonValue::str("exact"));
  }

  JsonValue out = JsonValue::object();
  out.set("enabled", JsonValue::boolean(config.enabled));
  out.set("start_on_detection",
          JsonValue::boolean(config.start_on_detection));
  out.set("detector", std::move(d));
  out.set("policy", std::move(p));
  out.set("estimator", std::move(e));
  return out;
}

JsonValue report_to_json(const QuarantineReport& r) {
  JsonValue o = JsonValue::object();
  o.set("target_hosts", JsonValue::integer(r.target_hosts));
  o.set("benign_hosts", JsonValue::integer(r.benign_hosts));
  o.set("detected_targets", JsonValue::number(r.detected_targets));
  o.set("detection_rate", JsonValue::number(r.detection_rate));
  o.set("mean_detection_latency",
        JsonValue::number(r.mean_detection_latency));
  o.set("false_positive_hosts", JsonValue::number(r.false_positive_hosts));
  o.set("false_positive_rate", JsonValue::number(r.false_positive_rate));
  o.set("benign_quarantine_time",
        JsonValue::number(r.benign_quarantine_time));
  o.set("mean_benign_quarantine_time",
        JsonValue::number(r.mean_benign_quarantine_time));
  o.set("target_quarantine_time",
        JsonValue::number(r.target_quarantine_time));
  o.set("quarantine_events", JsonValue::number(r.quarantine_events));
  return o;
}

QuarantineReport report_from_json(const JsonValue& v) {
  QuarantineReport r;
  r.target_hosts = v.at("target_hosts").as_uint();
  r.benign_hosts = v.at("benign_hosts").as_uint();
  r.detected_targets = v.at("detected_targets").as_number();
  r.detection_rate = v.at("detection_rate").as_number();
  r.mean_detection_latency = v.at("mean_detection_latency").as_number();
  r.false_positive_hosts = v.at("false_positive_hosts").as_number();
  r.false_positive_rate = v.at("false_positive_rate").as_number();
  r.benign_quarantine_time = v.at("benign_quarantine_time").as_number();
  r.mean_benign_quarantine_time =
      v.at("mean_benign_quarantine_time").as_number();
  r.target_quarantine_time = v.at("target_quarantine_time").as_number();
  r.quarantine_events = v.at("quarantine_events").as_number();
  return r;
}

void write_host_arrays(JsonWriter& w, const HostArrays& hosts) {
  const std::vector<HostRecord>& r = hosts.records;
  const std::vector<DetectorState>& d = hosts.detectors;
  if (r.size() != d.size()) bad("record/detector array size mismatch");
  w.begin_object().key("num_hosts").integer(r.size());
  write_column(w, "state", r, &HostRecord::state);
  write_column(w, "strikes", r, &HostRecord::strikes);
  write_column(w, "offenses", r, &HostRecord::offenses);
  write_column(w, "first_suspected", r, &HostRecord::first_suspected);
  write_column(w, "first_quarantined", r, &HostRecord::first_quarantined);
  write_column(w, "quarantine_start", r, &HostRecord::quarantine_start);
  write_column(w, "release_time", r, &HostRecord::release_time);
  write_column(w, "quarantine_time", r, &HostRecord::quarantine_time);
  write_column(w, "det_window", d, &DetectorState::window_index);
  write_column(w, "det_contacts", d, &DetectorState::contacts);
  write_column(w, "det_failures", d, &DetectorState::failures);
  write_column(w, "det_sketch", d, &DetectorState::dest_sketch);
  write_column(w, "det_flagged", d, &DetectorState::flagged);
  w.end_object();
}

HostArrays host_arrays_from_json(const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject)
    bad("host arrays not an object");
  const std::uint64_t n = need_uint(json, "num_hosts");
  // A parsed column of n entries bounds n by the input size before
  // anything is sized by it.
  column(json, "state", n);
  HostArrays out;
  std::vector<HostRecord>& r = out.records;
  std::vector<DetectorState>& d = out.detectors;
  r.resize(n);
  d.resize(n);
  read_column(json, "state", r, &HostRecord::state);
  read_column(json, "strikes", r, &HostRecord::strikes);
  read_column(json, "offenses", r, &HostRecord::offenses);
  read_column(json, "first_suspected", r, &HostRecord::first_suspected);
  read_column(json, "first_quarantined", r, &HostRecord::first_quarantined);
  read_column(json, "quarantine_start", r, &HostRecord::quarantine_start);
  read_column(json, "release_time", r, &HostRecord::release_time);
  read_column(json, "quarantine_time", r, &HostRecord::quarantine_time);
  read_column(json, "det_window", d, &DetectorState::window_index);
  read_column(json, "det_contacts", d, &DetectorState::contacts);
  read_column(json, "det_failures", d, &DetectorState::failures);
  read_column(json, "det_sketch", d, &DetectorState::dest_sketch);
  read_column(json, "det_flagged", d, &DetectorState::flagged);
  return out;
}

void write_store(JsonWriter& w, const StoreArrays& store) {
  w.begin_object().key("num_blocks").integer(store.window.size());
  w.key("words_per_block").integer(store.words_per_block);
  write_column(w, "window", store.window);
  write_column(w, "pool", store.pool);
  w.end_object();
}

StoreArrays store_arrays_from_json(const JsonValue& json) {
  if (json.kind() != JsonValue::Kind::kObject)
    bad("estimator store not an object");
  const std::uint64_t blocks = need_uint(json, "num_blocks");
  StoreArrays out;
  out.words_per_block = need_uint(json, "words_per_block");
  column(json, "window", blocks);
  // Divide rather than multiply: a hostile words_per_block must not
  // wrap blocks * words_per_block onto the pool's real length.
  const JsonValue* pool = json.find("pool");
  if (pool == nullptr || pool->kind() != JsonValue::Kind::kArray)
    bad("missing column 'pool'");
  if (out.words_per_block == 0 || pool->size() % out.words_per_block != 0 ||
      pool->size() / out.words_per_block != blocks)
    bad("column 'pool' length mismatch");
  out.window.resize(blocks);
  out.pool.resize(pool->size());
  read_column(json, "window", out.window);
  read_column(json, "pool", out.pool);
  return out;
}

void gather_block(StoreArrays& out, const CompactEstimatorStore& store,
                  std::size_t local) {
  out.words_per_block = store.words_per_block();
  out.window.push_back(store.block_window(local));
  const std::uint64_t* words = store.block_words(local);
  out.pool.insert(out.pool.end(), words, words + store.words_per_block());
}

void scatter_block(CompactEstimatorStore& store, std::size_t local,
                   const StoreArrays& arrays, std::size_t block) {
  try {
    store.restore_block(local, arrays.window[block],
                        arrays.pool.data() + block * arrays.words_per_block);
  } catch (const std::invalid_argument& e) {
    bad("block " + std::to_string(block) + ": " + e.what());
  }
}

}  // namespace dq::quarantine
