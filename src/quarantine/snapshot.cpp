#include "quarantine/snapshot.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace dq::quarantine {

namespace {

using campaign::JsonReader;
using campaign::JsonValue;
using campaign::JsonWriter;
using Token = JsonReader::Token;

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("quarantine snapshot: " + what);
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

void get(const JsonReader& in, double& out) { out = in.as_number(); }
void get(const JsonReader& in, std::uint64_t& out) { out = in.as_uint(); }
void get(const JsonReader& in, std::uint32_t& out) {
  const std::uint64_t u = in.as_uint();
  if (u > std::numeric_limits<std::uint32_t>::max())
    throw std::invalid_argument("value does not fit 32 bits");
  out = static_cast<std::uint32_t>(u);
}
void get(const JsonReader& in, bool& out) {
  const std::uint64_t u = in.as_uint();
  if (u > 1) throw std::invalid_argument("flag must be 0 or 1");
  out = u == 1;
}
void get(const JsonReader& in, HostQState& out) {
  const std::uint64_t u = in.as_uint();
  if (u > static_cast<std::uint64_t>(HostQState::kQuarantined))
    throw std::invalid_argument("state value out of range");
  out = static_cast<HostQState>(u);
}
void get(const JsonReader& in, std::int64_t& out) {
  if (in.as_number() == -1.0) {
    out = -1;
    return;
  }
  if (in.as_number() < 0.0 ||
      in.as_uint() > static_cast<std::uint64_t>(
                         std::numeric_limits<std::int64_t>::max()))
    throw std::invalid_argument(
        "window must be -1 or an integer below 2^63");
  out = static_cast<std::int64_t>(in.as_uint());
}

/// Writes `"key":[...]`, one entry per item (or per item's field).
template <typename Item, typename Proj = std::identity>
void write_column(JsonWriter& w, const char* key,
                  const std::vector<Item>& items, Proj proj = {}) {
  w.key(key).begin_array();
  for (const Item& item : items) put(w, std::invoke(proj, item));
  w.end_array();
}

/// Decodes the array `in` is about to read into every item (or item's
/// field), appending items when the column runs longer, and returns
/// its length; errors name the column and the entry.
template <typename Item, typename Proj = std::identity>
std::size_t read_column(JsonReader& in, const char* key,
                        std::vector<Item>& items, Proj proj = {}) {
  if (in.next() != Token::kBeginArray)
    bad(std::string("column '") + key + "' is not an array");
  std::size_t n = 0;
  for (Token t = in.next(); t != Token::kEndArray; t = in.next(), ++n) {
    if (n == items.size()) items.emplace_back();
    try {
      get(in, std::invoke(proj, items[n]));
    } catch (const std::invalid_argument& e) {
      bad(std::string("column '") + key + "' entry " + std::to_string(n) +
          ": " + e.what());
    }
  }
  return n;
}

/// Calls visit(key, items, field) for each host column in document
/// order, where `items` is the array of `field`'s struct. The encoder
/// and the decoder both walk this one list.
template <typename Arrays, typename Visit>
void for_each_column(Arrays& hosts, Visit&& visit) {
  visit("state", hosts.records, &HostRecord::state);
  visit("strikes", hosts.records, &HostRecord::strikes);
  visit("offenses", hosts.records, &HostRecord::offenses);
  visit("first_suspected", hosts.records, &HostRecord::first_suspected);
  visit("first_quarantined", hosts.records, &HostRecord::first_quarantined);
  visit("quarantine_start", hosts.records, &HostRecord::quarantine_start);
  visit("release_time", hosts.records, &HostRecord::release_time);
  visit("quarantine_time", hosts.records, &HostRecord::quarantine_time);
  visit("det_window", hosts.detectors, &DetectorState::window_index);
  visit("det_contacts", hosts.detectors, &DetectorState::contacts);
  visit("det_failures", hosts.detectors, &DetectorState::failures);
  visit("det_sketch", hosts.detectors, &DetectorState::dest_sketch);
  visit("det_flagged", hosts.detectors, &DetectorState::flagged);
}

/// The unsigned value of the member `in` is about to read.
std::uint64_t read_uint(JsonReader& in) {
  in.next();
  return in.as_uint();
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
  if (hosts.records.size() != hosts.detectors.size())
    bad("record/detector array size mismatch");
  w.begin_object().key("num_hosts").integer(hosts.records.size());
  for_each_column(hosts, [&](const char* key, const auto& items, auto field) {
    write_column(w, key, items, field);
  });
  w.end_object();
}

HostArrays read_host_arrays(JsonReader& in, Token first) {
  if (first != Token::kBeginObject) bad("host arrays not an object");
  HostArrays out;
  std::optional<std::uint64_t> n;
  std::map<std::string_view, std::size_t> lengths;  // per column read
  while (in.next() == Token::kKey) {
    const std::string key(in.as_string());
    if (key == "num_hosts") {
      n = read_uint(in);
      // The unread bytes, not the count, bound the allocation.
      out.records.reserve(in.room_for(*n));
      out.detectors.reserve(in.room_for(*n));
      continue;
    }
    bool known = false;
    for_each_column(out, [&](const char* name, auto& items, auto field) {
      if (key != name) return;
      lengths[name] = read_column(in, name, items, field);
      known = true;
    });
    if (!known) in.skip(in.next());
  }
  if (!n) bad("missing num_hosts");
  for_each_column(out, [&](const char* name, const auto&, auto) {
    const auto it = lengths.find(name);
    if (it == lengths.end()) bad(std::string("missing column '") + name + "'");
    if (it->second != *n)
      bad(std::string("column '") + name + "' length mismatch");
  });
  // A column given twice, longer the first time, leaves extra items.
  if (out.records.size() != *n || out.detectors.size() != *n)
    bad("host columns differ in length");
  return out;
}

void write_store(JsonWriter& w, const StoreArrays& store) {
  w.begin_object().key("num_blocks").integer(store.window.size());
  w.key("words_per_block").integer(store.words_per_block);
  write_column(w, "window", store.window);
  write_column(w, "pool", store.pool);
  w.end_object();
}

StoreArrays read_store(JsonReader& in, Token first) {
  if (first != Token::kBeginObject) bad("estimator store not an object");
  StoreArrays out;
  std::optional<std::uint64_t> blocks, words_per_block;
  std::optional<std::size_t> windows, words;
  while (in.next() == Token::kKey) {
    const std::string key(in.as_string());
    if (key == "num_blocks")
      blocks = read_uint(in);
    else if (key == "words_per_block")
      words_per_block = read_uint(in);
    else if (key == "window")
      windows = read_column(in, "window", out.window);
    else if (key == "pool")
      words = read_column(in, "pool", out.pool);
    else
      in.skip(in.next());
  }
  if (!blocks) bad("missing num_blocks");
  if (!words_per_block) bad("missing words_per_block");
  if (!windows) bad("missing column 'window'");
  if (!words) bad("missing column 'pool'");
  if (*windows != *blocks || out.window.size() != *blocks)
    bad("column 'window' length mismatch");
  // Divide rather than multiply: a hostile words_per_block must not
  // wrap blocks * words_per_block onto the pool's real length.
  out.words_per_block = *words_per_block;
  if (out.words_per_block == 0 || *words != out.pool.size() ||
      *words % out.words_per_block != 0 ||
      *words / out.words_per_block != *blocks)
    bad("column 'pool' length mismatch");
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
