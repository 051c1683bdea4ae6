#include "quarantine/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "quarantine/engine.hpp"
#include "stats/hash.hpp"

namespace dq::quarantine {
namespace {

QuarantineConfig make_config() {
  QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 5.0;
  c.detector.contact_rate_threshold = 6.0;
  c.detector.distinct_dest_threshold = 5.0;
  c.detector.failure_ratio_threshold = 0.6;
  c.detector.failure_min_attempts = 4;
  c.policy.strikes_to_quarantine = 2;
  c.policy.base_period = 30.0;
  c.policy.escalation = 2.0;
  c.policy.max_period = 240.0;
  return c;
}

/// Hotter failure gate than make_config: the synthetic stream below
/// spreads flows so thin (~1 per host-window) that make_config barely
/// quarantines, and replay needs strikes, quarantines and releases in
/// flight at the cuts to be worth checking.
QuarantineConfig make_replay_config() {
  QuarantineConfig c = make_config();
  c.detector.failure_min_attempts = 3;
  c.detector.failure_ratio_threshold = 0.5;
  return c;
}

/// Canonical encoding of `hosts`, the one writer.
std::string encode(const HostArrays& hosts) {
  std::string out;
  campaign::JsonWriter w(out);
  write_host_arrays(w, hosts);
  return out;
}

/// The host arrays, and the block pools, of one encoded section.
HostArrays decode_hosts(std::string_view bytes) {
  campaign::JsonReader in(bytes);
  return read_host_arrays(in, in.next());
}
StoreArrays decode_store(std::string_view bytes) {
  campaign::JsonReader in(bytes);
  return read_store(in, in.next());
}

struct SynthFlow {
  double time;
  std::uint32_t host;
  std::uint64_t dest;
  bool failed;
};

/// Deterministic synthetic stream: flow i is a pure function of
/// (seed, i). A contiguous low block of "worm" hosts scans random
/// destinations with a high failure rate; the rest revisit a small
/// per-host pool. Mirrors serve::SyntheticFlowSource so the engine sees
/// realistic state churn (strikes, quarantines, escalations, releases).
SynthFlow flow_at(std::uint64_t i, std::uint32_t hosts = 96,
                  std::uint64_t seed = 42) {
  const std::uint64_t r0 = mix64(seed ^ (i * 0x9e3779b97f4a7c15ULL));
  const std::uint64_t r1 = mix64(r0 ^ 0xd1b54a32d192ed03ULL);
  const std::uint64_t r2 = mix64(r1 ^ 0x8cb92ba72f3d8dd7ULL);
  SynthFlow f;
  f.host = static_cast<std::uint32_t>(r0 % hosts);
  const bool worm = f.host < hosts / 8;
  f.time = static_cast<double>(i) * 0.05;
  f.dest = worm ? r1 : static_cast<std::uint64_t>(f.host) * 16 + r1 % 16;
  const double u = static_cast<double>(r2 >> 11) * 0x1.0p-53;
  f.failed = u < (worm ? 0.8 : 0.02);
  return f;
}

void feed(QuarantineEngine& e, std::uint64_t from, std::uint64_t to) {
  for (std::uint64_t i = from; i < to; ++i) {
    const SynthFlow f = flow_at(i);
    e.advance_to(f.time);
    e.observe(f.host, f.dest, f.time, f.failed);
  }
}

/// One engine's state through the snapshot codec, laid out as a serve
/// checkpoint carries it (serve/checkpoint.hpp): the event count, the
/// host columns and, under the shared-bitmap backend, the block pools.
std::string snapshot(const QuarantineEngine& e) {
  HostArrays hosts;
  for (std::uint32_t h = 0; h < e.num_hosts(); ++h) {
    hosts.records.push_back(e.record(h));
    hosts.detectors.push_back(e.detector_state(h));
  }
  std::string out;
  campaign::JsonWriter w(out);
  w.begin_object().key("quarantine_events").integer(e.quarantine_events());
  w.key("hosts");
  write_host_arrays(w, hosts);
  if (const CompactEstimatorStore* s = e.compact_store()) {
    StoreArrays store;
    for (std::size_t b = 0; b < s->num_blocks(); ++b)
      gather_block(store, *s, b);
    w.key("store");
    write_store(w, store);
  }
  w.end_object();
  return out;
}

/// Inverse of snapshot() on a freshly constructed engine: block pools
/// first, since compact host windows are relative to their block's.
void restore(QuarantineEngine& e, const std::string& bytes) {
  const campaign::JsonValue doc = campaign::JsonValue::parse(bytes);
  if (CompactEstimatorStore* s = e.compact_store()) {
    const StoreArrays store = decode_store(doc.at("store").dump());
    ASSERT_EQ(store.window.size(), s->num_blocks());
    for (std::size_t b = 0; b < s->num_blocks(); ++b)
      scatter_block(*s, b, store, b);
  }
  const HostArrays hosts = decode_hosts(doc.at("hosts").dump());
  ASSERT_EQ(hosts.records.size(), e.num_hosts());
  for (std::uint32_t h = 0; h < e.num_hosts(); ++h)
    e.restore_host(h, hosts.records[h], hosts.detectors[h]);
  e.add_quarantine_events(doc.at("quarantine_events").as_uint());
}

/// Hosts mid-way through the state machine: suspected, quarantined,
/// or carrying strikes.
std::size_t hosts_in_flight(const QuarantineEngine& e) {
  std::size_t n = 0;
  for (std::uint32_t h = 0; h < e.num_hosts(); ++h)
    n += e.state(h) != HostQState::kFree || e.record(h).strikes > 0;
  return n;
}

void expect_records_equal(const QuarantineEngine& a,
                          const QuarantineEngine& b) {
  ASSERT_EQ(a.num_hosts(), b.num_hosts());
  for (std::uint32_t h = 0; h < a.num_hosts(); ++h) {
    const HostRecord& ra = a.record(h);
    const HostRecord& rb = b.record(h);
    EXPECT_EQ(ra.state, rb.state) << "host " << h;
    EXPECT_EQ(ra.strikes, rb.strikes) << "host " << h;
    EXPECT_EQ(ra.offenses, rb.offenses) << "host " << h;
    EXPECT_EQ(ra.first_suspected, rb.first_suspected) << "host " << h;
    EXPECT_EQ(ra.first_quarantined, rb.first_quarantined) << "host " << h;
    EXPECT_EQ(ra.quarantine_start, rb.quarantine_start) << "host " << h;
    EXPECT_EQ(ra.release_time, rb.release_time) << "host " << h;
    EXPECT_EQ(ra.quarantine_time, rb.quarantine_time) << "host " << h;
    const DetectorState da = a.detector_state(h);
    const DetectorState db = b.detector_state(h);
    EXPECT_EQ(da.window_index, db.window_index) << "host " << h;
    EXPECT_EQ(da.contacts, db.contacts) << "host " << h;
    EXPECT_EQ(da.failures, db.failures) << "host " << h;
    EXPECT_EQ(da.dest_sketch, db.dest_sketch) << "host " << h;
    EXPECT_EQ(da.flagged, db.flagged) << "host " << h;
  }
}

TEST(QuarantineSnapshot, RestoredEngineReplaysIdenticallyFromAnyPrefix) {
  constexpr std::uint64_t kFlows = 30'000;
  QuarantineEngine uninterrupted(96, make_replay_config());
  feed(uninterrupted, 0, kFlows);
  ASSERT_GT(uninterrupted.quarantine_events(), 0u);  // non-trivial stream

  std::size_t in_flight_at_cuts = 0;
  for (const std::uint64_t cut : {1ULL, 500ULL, 7'321ULL, 29'999ULL}) {
    QuarantineEngine prefix(96, make_replay_config());
    feed(prefix, 0, cut);
    in_flight_at_cuts += hosts_in_flight(prefix);

    QuarantineEngine resumed(96, make_replay_config());
    restore(resumed, snapshot(prefix));
    expect_records_equal(prefix, resumed);
    EXPECT_EQ(resumed.quarantine_events(), prefix.quarantine_events());
    EXPECT_EQ(resumed.currently_quarantined(),
              prefix.currently_quarantined());

    feed(resumed, cut, kFlows);
    expect_records_equal(uninterrupted, resumed);
    EXPECT_EQ(resumed.quarantine_events(),
              uninterrupted.quarantine_events());
    EXPECT_EQ(snapshot(resumed), snapshot(uninterrupted)) << "cut " << cut;

    // Reports are bit-identical too: same records, same accumulation
    // order (host id order), same event totals.
    std::vector<double> labels(96, -1.0);
    for (std::uint32_t h = 0; h < 96 / 8; ++h) labels[h] = 0.0;
    const double now = flow_at(kFlows - 1).time;
    const QuarantineReport ru = uninterrupted.report(labels, now);
    const QuarantineReport rr = resumed.report(labels, now);
    EXPECT_EQ(ru.detected_targets, rr.detected_targets);
    EXPECT_EQ(ru.mean_detection_latency, rr.mean_detection_latency);
    EXPECT_EQ(ru.false_positive_hosts, rr.false_positive_hosts);
    EXPECT_EQ(ru.benign_quarantine_time, rr.benign_quarantine_time);
    EXPECT_EQ(ru.target_quarantine_time, rr.target_quarantine_time);
    EXPECT_EQ(ru.quarantine_events, rr.quarantine_events);
  }
  EXPECT_GT(in_flight_at_cuts, 0u);  // the cuts split live state
}

TEST(QuarantineSnapshot, SnapshotOfRestoredEngineIsByteIdentical) {
  QuarantineEngine e(96, make_replay_config());
  feed(e, 0, 12'000);
  const std::string bytes = snapshot(e);

  QuarantineEngine restored(96, make_replay_config());
  restore(restored, bytes);
  EXPECT_EQ(snapshot(restored), bytes);
}

TEST(QuarantineSnapshot, HostArraysRoundTripPreservesFullSketchPrecision) {
  HostArrays hosts;
  hosts.records.resize(3);
  hosts.detectors.resize(3);
  std::vector<HostRecord>& records = hosts.records;
  std::vector<DetectorState>& detectors = hosts.detectors;
  records[1].state = HostQState::kQuarantined;
  records[1].strikes = 2;
  records[1].offenses = 3;
  records[1].first_suspected = 1.25;
  records[1].first_quarantined = 2.5;
  records[1].quarantine_start = 100.125;
  records[1].release_time = 340.125;
  records[2].state = HostQState::kSuspected;
  records[2].quarantine_time = 0.1;  // not exactly representable
  detectors[0].window_index = -1;    // never observed
  detectors[1].window_index = 7;
  detectors[1].contacts = 19;
  detectors[1].failures = 11;
  detectors[1].dest_sketch = 0xffffffffffffffffULL;  // needs 64 bits
  detectors[1].flagged = true;

  const std::string bytes = encode(hosts);
  const HostArrays back = decode_hosts(bytes);
  ASSERT_EQ(back.records.size(), 3u);
  EXPECT_EQ(back.records[1].state, HostQState::kQuarantined);
  EXPECT_EQ(back.records[1].release_time, 340.125);
  EXPECT_EQ(back.records[2].quarantine_time, 0.1);
  EXPECT_EQ(back.detectors[0].window_index, -1);
  EXPECT_EQ(back.detectors[1].dest_sketch, 0xffffffffffffffffULL);
  EXPECT_TRUE(back.detectors[1].flagged);
  // And the encoding itself round-trips byte-for-byte.
  EXPECT_EQ(encode(back), bytes);
}

TEST(QuarantineSnapshot, RejectsMalformedInput) {
  // Not a host-arrays object at all.
  EXPECT_THROW(decode_hosts(campaign::JsonValue::number(1.0).dump()),
               std::invalid_argument);
  EXPECT_THROW(decode_hosts(campaign::JsonValue::object().dump()),
               std::invalid_argument);
  // Column arrays of unequal length.
  {
    HostArrays unequal;
    unequal.records.resize(2);
    unequal.detectors.resize(3);
    EXPECT_THROW(encode(unequal), std::invalid_argument);
  }
  // Out-of-range state enum.
  {
    HostArrays one;
    one.records.resize(1);
    one.detectors.resize(1);
    campaign::JsonValue json = campaign::JsonValue::parse(encode(one));
    campaign::JsonValue bad_states = campaign::JsonValue::array();
    bad_states.push_back(campaign::JsonValue::integer(9));
    json.set("state", std::move(bad_states));
    EXPECT_THROW(decode_hosts(json.dump()), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------
// Shared-bitmap backend: the block pools travel in their own section,
// restored before per-host state (host window distances are encoded
// relative to their block's window).

QuarantineConfig make_compact_config() {
  QuarantineConfig c = make_replay_config();
  c.estimator_backend = EstimatorBackend::kSharedBitmap;
  c.compact.block_hosts = 16;  // 96 hosts -> 6 blocks
  c.compact.pool_bits_per_host = 16;
  c.compact.virtual_bits = 64;
  return c;
}

/// Copy of `obj` minus one key (JsonValue has no erase).
campaign::JsonValue without_key(const campaign::JsonValue& obj,
                                std::string_view key) {
  campaign::JsonValue out = campaign::JsonValue::object();
  for (const auto& [k, v] : obj.members())
    if (k != key) out.set(k, v);
  return out;
}

TEST(QuarantineSnapshot, CompactEngineReplaysIdenticallyFromAnyPrefix) {
  constexpr std::uint64_t kFlows = 30'000;
  QuarantineEngine uninterrupted(96, make_compact_config());
  feed(uninterrupted, 0, kFlows);
  ASSERT_GT(uninterrupted.quarantine_events(), 0u);

  std::size_t in_flight_at_cuts = 0;
  for (const std::uint64_t cut : {1ULL, 500ULL, 7'321ULL, 29'999ULL}) {
    QuarantineEngine prefix(96, make_compact_config());
    feed(prefix, 0, cut);
    in_flight_at_cuts += hosts_in_flight(prefix);

    QuarantineEngine resumed(96, make_compact_config());
    restore(resumed, snapshot(prefix));
    expect_records_equal(prefix, resumed);
    EXPECT_EQ(resumed.quarantine_events(), prefix.quarantine_events());

    // The restored pools must be bit-identical, not just the visible
    // per-host states: any lost pool bit would skew later estimates.
    const CompactEstimatorStore* sp = prefix.compact_store();
    const CompactEstimatorStore* sr = resumed.compact_store();
    ASSERT_NE(sp, nullptr);
    ASSERT_NE(sr, nullptr);
    for (std::size_t b = 0; b < sp->num_blocks(); ++b) {
      EXPECT_EQ(sp->block_window(b), sr->block_window(b)) << "block " << b;
      const std::uint64_t* wp = sp->block_words(b);
      const std::uint64_t* wr = sr->block_words(b);
      for (std::size_t w = 0; w < sp->words_per_block(); ++w)
        EXPECT_EQ(wp[w], wr[w]) << "block " << b << " word " << w;
    }

    feed(resumed, cut, kFlows);
    expect_records_equal(uninterrupted, resumed);
    EXPECT_EQ(resumed.quarantine_events(),
              uninterrupted.quarantine_events());
    EXPECT_EQ(snapshot(resumed), snapshot(uninterrupted)) << "cut " << cut;
  }
  EXPECT_GT(in_flight_at_cuts, 0u);  // the cuts split live state
}

TEST(QuarantineSnapshot, CompactSnapshotOfRestoredEngineIsByteIdentical) {
  QuarantineEngine e(96, make_compact_config());
  feed(e, 0, 12'000);
  const std::string bytes = snapshot(e);
  EXPECT_NE(bytes.find("\"store\""), std::string::npos);

  QuarantineEngine restored(96, make_compact_config());
  restore(restored, bytes);
  EXPECT_EQ(snapshot(restored), bytes);
}

TEST(QuarantineSnapshot, CompactRestoreRejectsCorruptStore) {
  // 6 bits/host over 16-host blocks: 96-bit pools, so each pool's
  // second word has 32 permanently-zero tail bits to corrupt.
  QuarantineConfig cfg = make_compact_config();
  cfg.compact.pool_bits_per_host = 6;
  QuarantineEngine donor(96, cfg);
  feed(donor, 0, 5'000);
  const campaign::JsonValue store =
      campaign::JsonValue::parse(snapshot(donor)).at("store");
  const StoreArrays good = decode_store(store.dump());
  ASSERT_EQ(good.words_per_block, 4u);

  // Not a store section, or one missing its pool.
  EXPECT_THROW(decode_store(campaign::JsonValue::number(1.0).dump()),
               std::invalid_argument);
  EXPECT_THROW(decode_store(without_key(store, "pool").dump()),
               std::invalid_argument);
  // Truncated pool array (one word short).
  {
    campaign::JsonValue pool = campaign::JsonValue::array();
    const auto& words = store.at("pool").items();
    for (std::size_t i = 0; i + 1 < words.size(); ++i)
      pool.push_back(words[i]);
    campaign::JsonValue bad = without_key(store, "pool");
    bad.set("pool", std::move(pool));
    EXPECT_THROW(decode_store(bad.dump()), std::invalid_argument);
  }
  // Stray bits past the pool tail: 96-bit pools leave the top 32 bits
  // of each pool's last word permanently zero. The error names the
  // global block even when it lands in another local slot.
  {
    StoreArrays bad = good;
    bad.pool[5 * 4 + 1] |= std::uint64_t{1} << 63;  // block 5, attempts tail
    QuarantineEngine fresh(96, cfg);
    try {
      scatter_block(*fresh.compact_store(), 0, bad, 5);
      FAIL() << "stray tail bits accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("block 5"), std::string::npos)
          << e.what();
    }
  }
  // Nonzero pool bits in an untouched (window -1) block: snapshot a
  // fresh engine (every block untouched) and flip one pool bit on.
  {
    QuarantineEngine untouched(96, cfg);
    StoreArrays bad = decode_store(
        campaign::JsonValue::parse(snapshot(untouched)).at("store").dump());
    ASSERT_EQ(bad.window[0], -1);
    bad.pool[0] = 1;  // block 0, word 0
    QuarantineEngine fresh(96, cfg);
    EXPECT_THROW(scatter_block(*fresh.compact_store(), 0, bad, 0),
                 std::invalid_argument);
  }
}

TEST(QuarantineSnapshot, CompactRestoreHostValidatesInterchangeState) {
  QuarantineConfig cfg = make_compact_config();
  QuarantineEngine e(96, cfg);
  e.observe(0, 7, 1.0, false);

  // The compact backend cannot reconstruct a private 64-bit sketch, so
  // host interchange states always carry dest_sketch = 0; a nonzero
  // sketch means the snapshot came from an exact engine.
  DetectorState bad_sketch = e.detector_state(1);
  bad_sketch.dest_sketch = 0x1;
  EXPECT_THROW(e.restore_host(1, HostRecord{}, bad_sketch),
               std::invalid_argument);

  // A host cannot be ahead of its block's window.
  DetectorState future = e.detector_state(1);
  future.window_index = 1'000;
  future.contacts = 1;
  EXPECT_THROW(e.restore_host(1, HostRecord{}, future),
               std::invalid_argument);
}

TEST(QuarantineSnapshot, RestoreHostRefusesAlreadyQuarantinedTarget) {
  QuarantineEngine e(4, make_config());
  // Two over-threshold windows: strike, strike, quarantine.
  for (int i = 0; i < 8; ++i)
    e.observe(0, static_cast<std::uint64_t>(i), 1.0, false);
  for (int i = 0; i < 8; ++i)
    e.observe(0, static_cast<std::uint64_t>(i), 6.0, false);
  ASSERT_TRUE(e.quarantined(0));
  EXPECT_THROW(e.restore_host(0, HostRecord{}, DetectorState{}),
               std::logic_error);
}

}  // namespace
}  // namespace dq::quarantine
