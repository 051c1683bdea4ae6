// Chaos/robustness coverage for the serve pipeline: checkpoint/restore
// byte-identity across shard counts, golden checkpoint bytes, overload
// shedding, the stall watchdog, transient-sink retries, corrupt- and
// out-of-range-checkpoint rejection and a seeded checkpoint fuzzer —
// faults driven through the failpoint registry (serve/failpoints.hpp).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "golden.hpp"
#include "serve/checkpoint.hpp"
#include "serve/failpoints.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"
#include "stats/file.hpp"

namespace dq::serve {
namespace {

quarantine::QuarantineConfig serve_config() {
  quarantine::QuarantineConfig c;
  c.enabled = true;
  c.detector.window = 0.05;
  c.detector.contact_rate_threshold = 0.0;
  c.detector.distinct_dest_threshold = 0.0;
  c.detector.failure_ratio_threshold = 0.7;
  c.detector.failure_min_attempts = 3;
  c.policy.base_period = 0.5;
  c.policy.escalation = 2.0;
  c.policy.max_period = 4.0;
  return c;
}

SyntheticConfig synth_config(std::uint64_t flows) {
  SyntheticConfig s;
  s.flows = flows;
  s.hosts = 512;
  s.worm_fraction = 0.05;
  s.flow_interval = 1e-4;
  return s;
}

ServeOptions base_options(std::size_t shards) {
  ServeOptions o;
  o.shards = shards;
  o.num_hosts = 512;
  o.quarantine = serve_config();
  return o;
}

/// Shared-bitmap backend: checkpoints gain an "estimator_store" section
/// (the block pools), which must survive shard-count changes and reject
/// corruption with typed errors.
ServeOptions compact_options(std::size_t shards) {
  ServeOptions o = base_options(shards);
  o.quarantine.estimator_backend =
      quarantine::EstimatorBackend::kSharedBitmap;
  o.quarantine.compact.block_hosts = 64;  // 512 hosts -> 8 blocks
  o.quarantine.compact.pool_bits_per_host = 6;
  o.quarantine.compact.virtual_bits = 64;
  return o;
}

struct RunResult {
  ServeSummary summary;
  std::string decisions;
  campaign::JsonValue counters;  ///< metrics snapshot "counters" object
};

RunResult run_synthetic(const ServeOptions& options,
                        const SyntheticConfig& synth) {
  ServeServer server(options);
  SyntheticFlowSource source(synth);
  std::ostringstream decisions;
  RunResult r;
  r.summary = server.run(source, &decisions, nullptr);
  r.decisions = decisions.str();
  r.counters = server.metrics().snapshot().at("counters");
  return r;
}

std::uint64_t counter_value(const campaign::JsonValue& counters,
                            std::string_view name) {
  const campaign::JsonValue* v = counters.find(name);
  return v == nullptr ? 0 : v->as_uint();
}

/// Decision stream minus its trailing summary line.
std::string drop_summary_line(const std::string& s) {
  if (s.empty()) return s;
  const auto pos = s.rfind('\n', s.size() - 2);
  return pos == std::string::npos ? std::string() : s.substr(0, pos + 1);
}

std::filesystem::path temp_file(const std::string& tag) {
  return std::filesystem::temp_directory_path() /
         ("dq_robustness_" + std::to_string(::getpid()) + "_" + tag);
}

struct TempFile {
  explicit TempFile(const std::string& tag) : path(temp_file(tag)) {}
  ~TempFile() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  std::filesystem::path path;
};

using Options = ServeOptions (*)(std::size_t shards);

/// The final checkpoint of a run of `options` over `synth`.
std::string checkpoint_after(const ServeOptions& options,
                             const SyntheticConfig& synth) {
  TempFile ck("ck");
  ServeOptions opt = options;
  opt.checkpoint_path = ck.path.string();
  run_synthetic(opt, synth);
  return read_file(ck.path);
}

std::shared_ptr<const CheckpointState> parsed(const std::string& bytes) {
  return std::make_shared<const CheckpointState>(
      CheckpointState::parse(bytes));
}

/// The synthetic stream of `flows` flows over the hosts of `options`.
SyntheticConfig synth_for(Options options, std::uint64_t flows) {
  SyntheticConfig s = synth_config(flows);
  s.hosts = options(1).num_hosts;
  return s;
}

/// For each cut, checkpoints the first `cut` flows at one shard count
/// and resumes the stream at another (1 -> 4, 4 -> 1 and 2 -> 4):
/// prefix + resumed decisions must equal the uninterrupted run's byte
/// for byte, summary line included, and so must the final checkpoint.
void expect_resume_is_identical(Options options) {
  constexpr std::uint64_t kFlows = 20'000;
  TempFile full_ck("full_ck");
  ServeOptions full_opt = options(1);
  full_opt.checkpoint_path = full_ck.path.string();
  const std::string full =
      run_synthetic(full_opt, synth_for(options, kFlows)).decisions;
  ASSERT_FALSE(full.empty());
  const std::string full_checkpoint = read_file(full_ck.path);

  for (const std::uint64_t cut :
       {std::uint64_t{1}, std::uint64_t{500}, std::uint64_t{7'321},
        std::uint64_t{12'000}, kFlows - 1}) {
    for (const auto& [ck_shards, resume_shards] :
         {std::pair<std::size_t, std::size_t>{1, 4}, {4, 1}, {2, 4}}) {
      TempFile ck("restore_ck");
      ServeOptions prefix_opt = options(ck_shards);
      prefix_opt.checkpoint_path = ck.path.string();
      const RunResult prefix =
          run_synthetic(prefix_opt, synth_for(options, cut));
      EXPECT_EQ(prefix.summary.flows_ingested, cut);

      TempFile resumed_ck("resumed_ck");
      ServeOptions resume_opt = options(resume_shards);
      resume_opt.restore = std::make_shared<const CheckpointState>(
          load_checkpoint_file(ck.path.string()));
      resume_opt.checkpoint_path = resumed_ck.path.string();
      SyntheticConfig resume_synth = synth_for(options, kFlows);
      resume_synth.start_flow = cut;
      const RunResult resumed = run_synthetic(resume_opt, resume_synth);

      const std::string where = "cut " + std::to_string(cut) +
                                ", checkpoint at " +
                                std::to_string(ck_shards) +
                                " shards, resume at " +
                                std::to_string(resume_shards);
      EXPECT_EQ(resumed.summary.flows_ingested, kFlows) << where;
      EXPECT_EQ(resumed.summary.flows_decided, kFlows) << where;
      EXPECT_EQ(drop_summary_line(prefix.decisions) + resumed.decisions,
                full)
          << where;
      EXPECT_EQ(read_file(resumed_ck.path), full_checkpoint) << where;
    }
  }
}

/// The checkpoint after 12k flows equals the committed `fixture` at
/// every shard count, and the typed state re-encodes it exactly.
void expect_checkpoint_matches_golden(Options options,
                                      const std::string& fixture) {
  for (const std::size_t shards : {1u, 2u, 4u})
    test::expect_golden(
        fixture, checkpoint_after(options(shards), synth_config(12'000)));
  const std::string golden = read_file(test::golden_dir() / fixture);
  const CheckpointState state = CheckpointState::parse(golden);
  EXPECT_EQ(state.flows_ingested, 12'000u);
  EXPECT_EQ(state.num_hosts, 512u);
  EXPECT_EQ(state.dump() + "\n", golden);
}

TEST(ServeRobustness, RestoreIsByteIdenticalAcrossShardCounts) {
  expect_resume_is_identical(base_options);
}

TEST(ServeRobustness, CheckpointBytesAreShardCountInvariant) {
  expect_checkpoint_matches_golden(base_options, "checkpoint_exact.json");
}

TEST(ServeRobustness, RestoreWithoutNewFlowsRewritesTheSameCheckpoint) {
  // A restored run that decides nothing further writes back exactly
  // the state it loaded, at a different shard count, for both backends.
  for (const Options options : {base_options, compact_options}) {
    const std::string loaded =
        checkpoint_after(options(2), synth_config(12'000));
    ServeOptions resume = options(3);
    resume.restore = parsed(loaded);
    SyntheticConfig none = synth_config(12'000);
    none.start_flow = 12'000;
    EXPECT_EQ(checkpoint_after(resume, none), loaded);
  }
}

TEST(ServeRobustness, PeriodicCheckpointsLandOnFinalState) {
  TempFile ck("periodic_ck");
  ServeOptions opt = base_options(2);
  opt.checkpoint_path = ck.path.string();
  opt.checkpoint_interval_flows = 3'000;
  const RunResult r = run_synthetic(opt, synth_config(10'000));
  EXPECT_EQ(r.summary.flows_ingested, 10'000u);
  const CheckpointState state = load_checkpoint_file(ck.path.string());
  EXPECT_EQ(state.flows_ingested, 10'000u);
}

TEST(ServeRobustness, ShedPolicyDegradesInsteadOfStalling) {
  // Shard 0's worker needs 1 ms per flow; with 64-slot queues the
  // router must shed to keep ingesting. The run stays bounded: shed
  // flows are dropped at the router, never queued.
  ScopedFailpoints fp("slow_shard:0:1000");
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kShed;
  opt.queue_capacity = 64;
  const RunResult r = run_synthetic(opt, synth_config(30'000));

  EXPECT_GT(r.summary.shed_flows, 0u);
  EXPECT_TRUE(r.summary.degraded);
  EXPECT_EQ(r.summary.flows_ingested, 30'000u);
  // Every ingested flow is either decided or counted shed — none lost.
  EXPECT_EQ(r.summary.flows_decided + r.summary.shed_flows,
            r.summary.flows_ingested);
  EXPECT_EQ(counter_value(r.counters, "serve.shed_flows"),
            r.summary.shed_flows);
  // The summary line records the degradation.
  EXPECT_NE(r.decisions.find("\"degraded\":true"), std::string::npos);
}

TEST(ServeRobustness, StallWatchdogFailsTheRunWithDiagnostic) {
  // Shard 0 is effectively wedged (1 s per flow); in block mode the
  // router would wait forever — the watchdog must fail the run in
  // bounded time with a per-shard diagnostic instead.
  ScopedFailpoints fp("slow_shard:0:1000000");
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kBlock;
  opt.queue_capacity = 16;
  opt.stall_timeout_seconds = 0.3;
  ServeServer server(opt);
  SyntheticFlowSource source(synth_config(50'000));
  try {
    server.run(source, nullptr, nullptr);
    FAIL() << "expected ServeStallError";
  } catch (const ServeStallError& e) {
    EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
        << e.what();
  }
}

TEST(ServeRobustness, BlockedRouterCountsStallsAndRecovers) {
  // A merely slow shard (300 us per flow) in block mode: the run still
  // completes with every flow decided, and the bounded-backoff paths
  // record the pressure in wall-clock counters.
  ScopedFailpoints fp("slow_shard:0:300");
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kBlock;
  opt.queue_capacity = 16;
  const RunResult r = run_synthetic(opt, synth_config(2'000));
  EXPECT_EQ(r.summary.flows_ingested, 2'000u);
  EXPECT_EQ(r.summary.flows_decided, 2'000u);
  EXPECT_EQ(r.summary.shed_flows, 0u);
  EXPECT_FALSE(r.summary.degraded);
  EXPECT_GE(counter_value(r.counters, "serve.router_stalls"), 1u);
}

TEST(ServeRobustness, LatencySamplesCountNoWaitAfterTheirDecision) {
  // One shard that sleeps 2 ms per flow gets 40 flows at once, so nearly
  // all of them land in one popped batch. Flow i is decided about
  // 2(i+1) ms after its ingest; a sample read at the end of the batch
  // would count the sleeps of the flows after it and read over 60 ms
  // for nearly every flow. With a 60 ms SLO only the last ten or so
  // flows breach.
  ScopedFailpoints fp("slow_shard:0:2000");
  ServeOptions opt = base_options(1);
  opt.slo_ms = 60.0;
  const RunResult r = run_synthetic(opt, synth_config(40));
  EXPECT_EQ(r.summary.flows_decided, 40u);
  EXPECT_LT(r.summary.slo_breaches, 30u);
}

TEST(ServeRobustness, TransientSinkErrorsRetryWithoutChangingTheStream) {
  const RunResult clean =
      run_synthetic(base_options(2), synth_config(20'000));
  ScopedFailpoints fp("sink_error:3");
  const RunResult faulty =
      run_synthetic(base_options(2), synth_config(20'000));
  EXPECT_EQ(faulty.decisions, clean.decisions);
  EXPECT_EQ(counter_value(faulty.counters, "serve.sink_retries"), 3u);
  EXPECT_EQ(counter_value(clean.counters, "serve.sink_retries"), 0u);
}

TEST(ServeRobustness, TornCheckpointWriteIsRejectedOnRestore) {
  TempFile ck("torn_ck");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  {
    ScopedFailpoints fp("torn_checkpoint:1");
    ServeOptions opt = base_options(1);
    opt.checkpoint_path = ck.path.string();
    opt.obs.trace = &ring;
    run_synthetic(opt, synth_config(5'000));
  }
  EXPECT_THROW(load_checkpoint_file(ck.path.string()), CheckpointError);
  // The service believed the write succeeded — the trace records it;
  // the torn bytes are caught on restore, not write.
  std::size_t writes = 0;
  for (const obs::Event& e : ring.events())
    writes += e.kind == obs::EventKind::kCheckpointWrite ? 1 : 0;
  EXPECT_EQ(writes, 1u);
}

/// Copy of `obj` minus one key (JsonValue has no erase).
campaign::JsonValue without_key(const campaign::JsonValue& obj,
                                std::string_view key) {
  campaign::JsonValue out = campaign::JsonValue::object();
  for (const auto& [k, v] : obj.members())
    if (k != key) out.set(k, v);
  return out;
}

/// Checkpoint document `doc` with `section`.`column`[0] set to `v`.
campaign::JsonValue with_first_entry(const campaign::JsonValue& doc,
                                     const char* section, const char* column,
                                     campaign::JsonValue v) {
  const campaign::JsonValue& old = doc.at(section).at(column);
  campaign::JsonValue col = campaign::JsonValue::array();
  col.push_back(std::move(v));
  for (std::size_t i = 1; i < old.size(); ++i) col.push_back(old.items()[i]);
  campaign::JsonValue edited_section = doc.at(section);
  edited_section.set(column, std::move(col));
  campaign::JsonValue out = doc;
  out.set(section, std::move(edited_section));
  return out;
}

TEST(ServeRobustness, CorruptCheckpointsRaiseCheckpointError) {
  const auto expect_rejected = [](const std::string& bytes,
                                  const std::string& what) {
    TempFile f("corrupt_ck");
    std::ofstream(f.path) << bytes;
    EXPECT_THROW(load_checkpoint_file(f.path.string()), CheckpointError)
        << what;
  };
  // Missing file.
  EXPECT_THROW(load_checkpoint_file(temp_file("missing").string()),
               CheckpointError);
  expect_rejected("definitely not json\n", "not JSON at all");
  expect_rejected("{\"format\":\"something_else\"}\n", "wrong document");

  using campaign::JsonValue;
  const std::string exact =
      read_file(test::golden_dir() / "checkpoint_exact.json");
  expect_rejected(exact.substr(0, exact.size() / 2), "truncated");

  // Only version 2 exists; a missing version is not a guess.
  const JsonValue doc = JsonValue::parse(exact);
  expect_rejected(without_key(doc, "version").dump(), "no version");
  for (const std::uint64_t version : {1u, 3u, 99u}) {
    JsonValue wrong = doc;
    wrong.set("version", JsonValue::integer(version));
    expect_rejected(wrong.dump(), "version " + std::to_string(version));
  }

  // Values a field cannot hold are rejected, never truncated: 2^32 + 512
  // would otherwise read back as this checkpoint's own 512 hosts.
  constexpr std::uint64_t k2to32 = std::uint64_t{1} << 32;
  JsonValue hosts_overflow = doc;
  hosts_overflow.set("num_hosts", JsonValue::integer(k2to32 + 512));
  expect_rejected(hosts_overflow.dump(), "num_hosts 2^32 + 512");
  for (const char* u32_column :
       {"strikes", "offenses", "det_contacts", "det_failures"})
    expect_rejected(
        with_first_entry(doc, "hosts", u32_column, JsonValue::integer(k2to32))
            .dump(),
        std::string(u32_column) + " 2^32");
  const JsonValue bad_windows[] = {JsonValue::number(-7.0),
                                   JsonValue::number(1.5),
                                   JsonValue::integer(std::uint64_t{1} << 63)};
  for (const JsonValue& w : bad_windows)
    expect_rejected(with_first_entry(doc, "hosts", "det_window", w).dump(),
                    "det_window " + w.dump());
  expect_rejected(
      with_first_entry(doc, "hosts", "det_flagged", JsonValue::integer(7))
          .dump(),
      "det_flagged 7");

  const JsonValue compact = JsonValue::parse(
      read_file(test::golden_dir() / "checkpoint_shared_bitmap.json"));
  for (const JsonValue& w : bad_windows)
    expect_rejected(
        with_first_entry(compact, "estimator_store", "window", w).dump(),
        "estimator_store window " + w.dump());
}

TEST(ServeRobustness, DeeplyNestedCheckpointRaisesCheckpointError) {
  // 50k nested objects: without JsonValue::parse's depth cap the
  // recursive parse overflows the stack.
  TempFile f("deep_ck");
  {
    std::ofstream out(f.path);
    for (int i = 0; i < 50'000; ++i) out << "{\"a\":";
  }
  EXPECT_THROW(load_checkpoint_file(f.path.string()), CheckpointError);
}

TEST(ServeRobustness, RestoreValidatesHostCountAndConfig) {
  const auto exact = parsed(
      read_file(test::golden_dir() / "checkpoint_exact.json"));
  {
    ServeOptions bad = base_options(1);
    bad.num_hosts = 1024;  // checkpoint was taken with 512
    bad.restore = exact;
    EXPECT_THROW(ServeServer{bad}, std::invalid_argument);
  }
  {
    ServeOptions bad = base_options(1);
    bad.quarantine.policy.base_period = 99.0;  // different thresholds
    bad.restore = exact;
    EXPECT_THROW(ServeServer{bad}, std::invalid_argument);
  }
}

// The checkpoint is the engine's only snapshot document
// (quarantine/snapshot.hpp encodes its host and block sections); these
// are its document-level guards.

TEST(QuarantineSnapshot, SnapshotVersionIsRequiredAndChecked) {
  // The writer stamps the current version ...
  const campaign::JsonValue doc = campaign::JsonValue::parse(
      parsed(read_file(test::golden_dir() / "checkpoint_exact.json"))
          ->dump());
  EXPECT_EQ(doc.at("version").as_uint(), kCheckpointVersion);

  // ... and the decoder refuses any other for the version itself, not
  // for some other field.
  const auto expect_refused = [](const campaign::JsonValue& bad,
                                 const std::string& what) {
    try {
      CheckpointState::parse(bad.dump());
      ADD_FAILURE() << what << " accepted";
    } catch (const CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  expect_refused(without_key(doc, "version"), "missing version");
  for (const std::uint64_t version : {1u, 3u, 99u}) {
    campaign::JsonValue wrong = doc;
    wrong.set("version", campaign::JsonValue::integer(version));
    expect_refused(wrong, "version " + std::to_string(version));
  }
}

TEST(QuarantineSnapshot, BackendMismatchBetweenSnapshotAndEngineRejected) {
  const auto exact = parsed(
      read_file(test::golden_dir() / "checkpoint_exact.json"));
  const auto compact = parsed(
      read_file(test::golden_dir() / "checkpoint_shared_bitmap.json"));
  // The estimator backend is part of the config: neither backend's
  // checkpoint resumes under the other (pools would be dropped or
  // invented).
  {
    ServeOptions bad = compact_options(1);
    bad.restore = exact;
    EXPECT_THROW(ServeServer{bad}, std::invalid_argument);
  }
  {
    ServeOptions bad = base_options(1);
    bad.restore = compact;
    EXPECT_THROW(ServeServer{bad}, std::invalid_argument);
  }
}

TEST(ServeRobustness, CompactRestoreIsByteIdenticalAcrossShardCounts) {
  expect_resume_is_identical(compact_options);
}

TEST(ServeRobustness, CompactCheckpointBytesAreShardCountInvariant) {
  expect_checkpoint_matches_golden(compact_options,
                                   "checkpoint_shared_bitmap.json");
}

/// Host counts that leave the last partition block partial: 1,000 hosts
/// in blocks of 64 under the shared bitmap (15 whole blocks and 40
/// hosts), and an odd count under the exact backend (blocks of one).
ServeOptions compact_partial_options(std::size_t shards) {
  ServeOptions o = compact_options(shards);
  o.num_hosts = 1'000;
  return o;
}
ServeOptions exact_odd_options(std::size_t shards) {
  ServeOptions o = base_options(shards);
  o.num_hosts = 999;
  return o;
}

TEST(ServeRobustness, APartialLastBlockKeepsEveryByteAtAnyShardCount) {
  for (const Options options : {compact_partial_options, exact_odd_options}) {
    const SyntheticConfig synth = synth_for(options, 20'000);
    const std::string hosts = std::to_string(synth.hosts) + " hosts";
    std::string decisions, checkpoint;
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      TempFile ck("partial_ck");
      ServeOptions opt = options(shards);
      opt.checkpoint_path = ck.path.string();
      const RunResult r = run_synthetic(opt, synth);
      if (shards == 1) {
        decisions = r.decisions;
        checkpoint = read_file(ck.path);
        continue;
      }
      EXPECT_EQ(r.decisions, decisions) << hosts << ", " << shards;
      EXPECT_EQ(read_file(ck.path), checkpoint) << hosts << ", " << shards;
    }
    expect_resume_is_identical(options);
  }
}

TEST(ServeRobustness, CorruptEstimatorStoreIsRejectedOnRestore) {
  const CheckpointState good = *parsed(
      checkpoint_after(compact_options(2), synth_config(5'000)));
  ASSERT_TRUE(good.store.has_value());
  const auto expect_refused = [](const CheckpointState& bad, Options options,
                                 const std::string& what) {
    ServeOptions r = options(2);
    r.restore = std::make_shared<const CheckpointState>(bad);
    EXPECT_THROW(ServeServer{r}, std::invalid_argument) << what;
  };

  CheckpointState bad = good;
  bad.store.reset();
  expect_refused(bad, compact_options, "store section dropped");
  bad = good;
  bad.store->pool.pop_back();
  expect_refused(bad, compact_options, "truncated pool");
  bad = good;  // geometry of some other config: one block too many
  bad.store->window.push_back(-1);
  bad.store->pool.resize(bad.store->pool.size() + bad.store->words_per_block);
  expect_refused(bad, compact_options, "block count");

  // 16-host blocks at 6 bits/host make 96-bit pools, so the top 32 bits
  // of each pool's second word are always zero. A stray bit there is
  // refused with the *global* block named (block 5 is not block 5 of
  // its shard at 2 shards).
  const Options tail_options = [](std::size_t shards) {
    ServeOptions o = compact_options(shards);
    o.quarantine.compact.block_hosts = 16;
    return o;
  };
  bad = *parsed(checkpoint_after(tail_options(2), synth_config(5'000)));
  ASSERT_EQ(bad.store->words_per_block, 4u);
  bad.store->pool[5 * 4 + 1] |= std::uint64_t{1} << 63;
  {
    ServeOptions r = tail_options(2);
    r.restore = std::make_shared<const CheckpointState>(bad);
    try {
      ServeServer server(r);
      FAIL() << "stray tail bits accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("block 5:"), std::string::npos)
          << e.what();
    }
  }

  // Pool bits in a block that has never seen a flow (window -1).
  bad = *parsed(checkpoint_after(tail_options(2), synth_config(1)));
  std::size_t untouched = 0;
  while (bad.store->window[untouched] != -1) ++untouched;
  bad.store->pool[untouched * 4] = 1;
  expect_refused(bad, tail_options, "bits in an untouched block");
}

TEST(ServeRobustness, EstimatorStoreOnExactCheckpointRejected) {
  CheckpointState bad = *parsed(
      read_file(test::golden_dir() / "checkpoint_exact.json"));
  ASSERT_FALSE(bad.store.has_value());
  bad.store.emplace();  // store on an exact engine

  ServeOptions r = base_options(1);
  r.restore = std::make_shared<const CheckpointState>(bad);
  EXPECT_THROW(ServeServer{r}, std::invalid_argument);
}

TEST(ServeRobustness, ParseErrorSamplesSurfaceInSummary) {
  std::stringstream in;
  const std::string long_junk(300, 'x');
  in << "{\"t\":0.1,\"host\":1,\"dest\":2,\"failed\":false}\n"
     << "not json at all\n"
     << long_junk << "\n"
     << "{\"t\":0.2,\"host\":9999,\"dest\":2,\"failed\":false}\n"
     << "{broken\n"
     << "[1,2,3]\n"
     << "{\"host\":1}\n"
     << "still bad\n"
     << "{\"t\":0.3,\"host\":2,\"dest\":3,\"failed\":true}\n";
  NdjsonFlowSource source(in, 512);
  ServeOptions opt = base_options(2);
  ServeServer server(opt);
  std::ostringstream decisions;
  const ServeSummary summary = server.run(source, &decisions, nullptr);

  EXPECT_EQ(summary.flows_ingested, 2u);
  EXPECT_EQ(summary.parse_errors, 7u);
  // Only the first kMaxErrorSamples are kept, each capped in length.
  ASSERT_EQ(summary.parse_error_samples.size(),
            NdjsonFlowSource::kMaxErrorSamples);
  EXPECT_EQ(summary.parse_error_samples[0], "not json at all");
  EXPECT_EQ(summary.parse_error_samples[1].size(),
            NdjsonFlowSource::kMaxSampleLength);
  EXPECT_NE(decisions.str().find("\"parse_error_samples\":[\"not json"),
            std::string::npos);
}

TEST(ServeRobustness, CleanRunsOmitParseErrorSamples) {
  const RunResult r = run_synthetic(base_options(1), synth_config(100));
  EXPECT_TRUE(r.summary.parse_error_samples.empty());
  EXPECT_EQ(r.decisions.find("parse_error_samples"), std::string::npos);
}

TEST(ServeRobustness, SyntheticStartFlowSkipsDeterministically) {
  SyntheticConfig full_cfg = synth_config(1'000);
  SyntheticConfig tail_cfg = full_cfg;
  tail_cfg.start_flow = 400;
  SyntheticFlowSource full(full_cfg);
  SyntheticFlowSource tail(tail_cfg);
  Flow f;
  for (int i = 0; i < 400; ++i) ASSERT_TRUE(full.next(f));
  Flow g;
  while (tail.next(g)) {
    ASSERT_TRUE(full.next(f));
    EXPECT_EQ(f.time, g.time);
    EXPECT_EQ(f.host, g.host);
    EXPECT_EQ(f.dest, g.dest);
    EXPECT_EQ(f.failed, g.failed);
    EXPECT_EQ(f.labeled_worm, g.labeled_worm);
  }
  EXPECT_FALSE(full.next(f));  // both exhausted together
}

TEST(ServeRobustness, FailpointGrammarIsValidated) {
  Failpoints fp;
  EXPECT_THROW(fp.configure("bogus"), std::invalid_argument);
  EXPECT_THROW(fp.configure("slow_shard:1"), std::invalid_argument);
  EXPECT_THROW(fp.configure("slow_shard:a:b"), std::invalid_argument);
  EXPECT_THROW(fp.configure("sink_error:x"), std::invalid_argument);
  EXPECT_THROW(fp.configure("torn_checkpoint:"), std::invalid_argument);
  EXPECT_THROW(fp.configure("sink_error:1,junk"), std::invalid_argument);

  fp.configure("slow_shard:2:50,sink_error:1");
  EXPECT_TRUE(fp.active());
  EXPECT_EQ(fp.slow_shard_micros(2), 50u);
  EXPECT_EQ(fp.slow_shard_micros(0), 0u);
  EXPECT_TRUE(fp.consume_sink_error());
  EXPECT_FALSE(fp.consume_sink_error());
  fp.configure("");
  EXPECT_FALSE(fp.active());
}

// ---------------------------------------------------------------------
// Robustness transitions are observable: the serve pipeline emits
// TraceRing events for checkpoint writes/restores, shed episodes, sink
// retries, and stalls, so chaos runs can be audited after the fact.

std::size_t count_events(const obs::TraceRing& ring, obs::EventKind kind) {
  std::size_t n = 0;
  for (const obs::Event& e : ring.events()) n += e.kind == kind ? 1 : 0;
  return n;
}

TEST(ServeRobustness, ShedEpisodesEmitTraceEvents) {
  ScopedFailpoints fp("slow_shard:0:1000");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kShed;
  opt.queue_capacity = 64;
  opt.obs.trace = &ring;
  const RunResult r = run_synthetic(opt, synth_config(30'000));
  ASSERT_GT(r.summary.shed_flows, 0u);

  // Episodes are bracketed: every shed_start has a matching shed_end,
  // and the shed_end values (flows shed per episode) sum to the total.
  const std::size_t starts = count_events(ring, obs::EventKind::kShedStart);
  const std::size_t ends = count_events(ring, obs::EventKind::kShedEnd);
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, ends);
  std::uint64_t shed_total = 0;
  for (const obs::Event& e : ring.events())
    if (e.kind == obs::EventKind::kShedEnd) shed_total += e.value;
  EXPECT_EQ(shed_total, r.summary.shed_flows);
}

TEST(ServeRobustness, SinkRetriesEmitTraceEvents) {
  ScopedFailpoints fp("sink_error:3");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  ServeOptions opt = base_options(2);
  opt.obs.trace = &ring;
  run_synthetic(opt, synth_config(20'000));
  const std::size_t retries =
      count_events(ring, obs::EventKind::kSinkRetry);
  EXPECT_EQ(retries, 3u);
}

TEST(ServeRobustness, CheckpointWriteAndRestoreEmitTraceEvents) {
  TempFile ck("obs_ck");
  obs::TraceRing write_ring(obs::kDefaultRingCapacity);
  {
    ServeOptions opt = base_options(2);
    opt.checkpoint_path = ck.path.string();
    opt.checkpoint_interval_flows = 3'000;
    opt.obs.trace = &write_ring;
    run_synthetic(opt, synth_config(10'000));
  }
  // 10k flows / 3k interval = 3 periodic writes, plus the final one.
  EXPECT_EQ(count_events(write_ring, obs::EventKind::kCheckpointWrite), 4u);
  // The final write records the full stream.
  std::uint64_t last_flows = 0;
  for (const obs::Event& e : write_ring.events())
    if (e.kind == obs::EventKind::kCheckpointWrite) last_flows = e.value;
  EXPECT_EQ(last_flows, 10'000u);

  obs::TraceRing restore_ring(obs::kDefaultRingCapacity);
  ServeOptions resume = base_options(2);
  resume.restore = std::make_shared<const CheckpointState>(
      load_checkpoint_file(ck.path.string()));
  resume.obs.trace = &restore_ring;
  SyntheticConfig tail = synth_config(12'000);
  tail.start_flow = 10'000;
  run_synthetic(resume, tail);
  const std::vector<obs::Event> events = restore_ring.events();
  ASSERT_FALSE(events.empty());
  // The restore event leads the trace and carries the restored flow
  // count.
  EXPECT_EQ(events[0].kind, obs::EventKind::kCheckpointRestore);
  EXPECT_EQ(events[0].value, 10'000u);
}

TEST(ServeRobustness, StallsEmitATraceEventNamingTheShard) {
  ScopedFailpoints fp("slow_shard:1:1000000");
  obs::TraceRing ring(obs::kDefaultRingCapacity);
  ServeOptions opt = base_options(2);
  opt.overload = OverloadPolicy::kBlock;
  opt.queue_capacity = 16;
  opt.stall_timeout_seconds = 0.3;
  opt.obs.trace = &ring;
  ServeServer server(opt);
  SyntheticFlowSource source(synth_config(50'000));
  EXPECT_THROW(server.run(source, nullptr, nullptr), ServeStallError);
  bool found = false;
  for (const obs::Event& e : ring.events())
    if (e.kind == obs::EventKind::kStall) {
      found = true;
      EXPECT_EQ(e.id, 1u);
    }
  EXPECT_TRUE(found);
}

TEST(ServeRobustness, ProfilerOnOrOffKeepsDecisionBytes) {
  // Chaos leg: a sink-retry run with the profiler on must still equal
  // the clean, unprofiled stream byte for byte (retries are invisible,
  // spans are invisible).
  const std::string clean =
      run_synthetic(base_options(2), synth_config(20'000)).decisions;
  ASSERT_FALSE(clean.empty());
  {
    ScopedFailpoints fp("sink_error:3");
    obs::Profiler profiler;
    ServeOptions opt = base_options(2);
    opt.profiler = &profiler;
    const RunResult r = run_synthetic(opt, synth_config(20'000));
    EXPECT_GT(profiler.total_spans(), 0u);
    EXPECT_EQ(r.decisions, clean);
    EXPECT_EQ(counter_value(r.counters, "serve.sink_retries"), 3u);
  }
  // Failpoint-free leg at a different shard count.
  obs::Profiler profiler;
  ServeOptions opt = base_options(4);
  opt.profiler = &profiler;
  const std::string profiled =
      run_synthetic(opt, synth_config(20'000)).decisions;
  EXPECT_GT(profiler.total_spans(), 0u);
  EXPECT_EQ(profiled, clean);
}

TEST(ServeRobustness, ServerOptionValidation) {
  {
    ServeOptions opt = base_options(1);
    opt.stall_timeout_seconds = -1.0;
    EXPECT_THROW(ServeServer{opt}, std::invalid_argument);
  }
  {
    ServeOptions opt = base_options(1);
    opt.checkpoint_interval_flows = 100;  // interval without a path
    EXPECT_THROW(ServeServer{opt}, std::invalid_argument);
  }
}

// ---------------------------------------------------------------------
// Seeded mutation fuzzer over checkpoint load and restore. Mutants of
// the golden checkpoints — byte flips, truncations, inserted nesting
// and spliced extreme numbers — must fail to load with CheckpointError,
// or load and then either restore into a ServeServer or be refused with
// std::invalid_argument. Anything else (another exception, a crash, a
// sanitizer report) fails. Three mutations are benign: reordered
// members, whitespace between tokens, and an unknown member. A mutant
// made only of those must load and restore, and dump the seed's bytes.

/// A random JSON value, nested at most `depth` levels.
campaign::JsonValue random_value(std::mt19937_64& rng, int depth) {
  using campaign::JsonValue;
  switch (rng() % (depth > 0 ? 6 : 4)) {
    case 0: return JsonValue();
    case 1: return JsonValue::boolean(rng() % 2 == 0);
    case 2:
      return rng() % 2 == 0 ? JsonValue::integer(rng())
                            : JsonValue::number(-0.5 * (rng() % 1000));
    case 3: return JsonValue::str("\"{[\\\n" + std::to_string(rng() % 100));
    case 4: {
      JsonValue a = JsonValue::array();
      for (std::uint64_t n = rng() % 4; n > 0; --n)
        a.push_back(random_value(rng, depth - 1));
      return a;
    }
    default: {
      JsonValue o = JsonValue::object();
      for (std::uint64_t n = rng() % 4; n > 0; --n)
        o.set("k" + std::to_string(n), random_value(rng, depth - 1));
      return o;
    }
  }
}

/// One object of `doc` — the top level, "hosts" or "estimator_store" —
/// with its members shuffled, or with an unknown member holding a
/// random value put among them. Leaves a `doc` that no longer parses
/// as it is.
void edit_object(std::string& doc, std::mt19937_64& rng, bool add_unknown) {
  using campaign::JsonValue;
  JsonValue top;
  try {
    top = JsonValue::parse(doc);
  } catch (const std::invalid_argument&) {
    return;
  }
  const auto edited = [&](const JsonValue& obj) {
    auto members = obj.members();
    if (add_unknown)
      members.emplace(members.begin() + rng() % (members.size() + 1),
                      "unknown_" + std::to_string(rng() % 100),
                      random_value(rng, 3));
    else
      std::shuffle(members.begin(), members.end(), rng);
    JsonValue out = JsonValue::object();
    for (auto& [key, value] : members) out.set(key, std::move(value));
    return out;
  };
  if (top.kind() != JsonValue::Kind::kObject) return;
  const char* section = rng() % 3 == 0 ? nullptr
                        : rng() % 2 == 0 ? "hosts"
                                         : "estimator_store";
  const JsonValue* inner = section != nullptr ? top.find(section) : nullptr;
  if (section == nullptr)
    top = edited(top);
  else if (inner != nullptr && inner->kind() == JsonValue::Kind::kObject)
    top.set(section, edited(*inner));
  doc = top.dump() + "\n";
}

/// Applies one random mutation to `doc` and returns whether it is one
/// of the benign kinds. Most mutations swap a whole number for an
/// extreme one, so that many mutants still parse and reach the decoder
/// and restore validation.
bool mutate(std::string& doc, std::mt19937_64& rng) {
  static constexpr const char* kNumbers[] = {
      "18446744073709551616",  // 2^64
      "9223372036854775808",   // 2^63
      "4294967296",            // 2^32
      "65536", "-1", "1e308"};
  const auto in = [](std::string_view set, char c) {
    return set.find(c) != std::string_view::npos;
  };
  const std::size_t at = rng() % (doc.size() + 1);
  switch (rng() % 9) {
    case 0:  // flip bits of one byte
      if (at < doc.size()) doc[at] ^= static_cast<char>(1 + rng() % 255);
      return false;
    case 1:
      doc.resize(at);
      return false;
    case 2: {  // nesting, sometimes past the parser's depth cap
      const std::string open = rng() % 2 == 0 ? "[" : "{\"a\":";
      std::string nest;
      for (std::uint64_t i = 1 + rng() % 600; i > 0; --i) nest += open;
      doc.insert(at, nest);
      return false;
    }
    case 3:
    case 4:
      edit_object(doc, rng, rng() % 2 == 0);
      return true;
    case 5: {  // whitespace beside a structural character, outside strings
      std::vector<std::size_t> gaps;
      bool quoted = false;
      for (std::size_t i = 0; i < doc.size(); ++i) {
        if (quoted && doc[i] == '\\') {
          ++i;  // the escaped character
        } else if (doc[i] == '"') {
          quoted = !quoted;
        } else if (!quoted && in("{}[],:", doc[i])) {
          gaps.insert(gaps.end(), {i, i + 1});
        }
      }
      std::string space;
      for (std::uint64_t n = 1 + rng() % 3; n > 0; --n)
        space += " \t\n\r"[rng() % 4];
      if (!gaps.empty()) doc.insert(gaps[rng() % gaps.size()], space);
      return true;
    }
    default: {  // replace the first number value at or after `at`
      std::size_t b = at;
      while (b < doc.size() &&
             !(b > 0 && in(":,[", doc[b - 1]) && in("-0123456789", doc[b])))
        ++b;
      std::size_t e = b;
      while (e < doc.size() && in("-+.eE0123456789", doc[e])) ++e;
      doc.replace(b, e - b, kNumbers[rng() % std::size(kNumbers)]);
      return false;
    }
  }
}

TEST(CheckpointFuzz, MutantsAreRejectedOrRestoredNeverCrash) {
  struct Seed {
    std::string bytes;
    Options options;
  };
  const Seed seeds[] = {
      {read_file(test::golden_dir() / "checkpoint_exact.json"),
       base_options},
      {read_file(test::golden_dir() / "checkpoint_shared_bitmap.json"),
       compact_options}};
  TempFile f("fuzz_ck");
  std::mt19937_64 rng(42);
  std::size_t rejected = 0, refused = 0, restored = 0, benign = 0;
  for (int i = 0; i < 1000; ++i) {
    const Seed& seed = seeds[i % 2];
    std::string doc = seed.bytes;
    bool only_benign = true;
    for (std::uint64_t m = 1 + rng() % 2; m > 0; --m)
      only_benign = mutate(doc, rng) && only_benign;
    benign += only_benign ? 1 : 0;
    std::ofstream(f.path, std::ios::binary | std::ios::trunc) << doc;

    std::shared_ptr<const CheckpointState> state;
    try {
      state = std::make_shared<const CheckpointState>(
          load_checkpoint_file(f.path.string()));
    } catch (const CheckpointError& e) {
      EXPECT_FALSE(only_benign) << "mutant " << i << ": " << e.what();
      ++rejected;
      continue;
    }
    if (only_benign) {
      EXPECT_EQ(state->dump() + "\n", seed.bytes) << "mutant " << i;
    }
    ServeOptions options = seed.options(2);
    options.restore = state;
    try {
      ServeServer server(options);
      ++restored;
    } catch (const std::invalid_argument& e) {
      EXPECT_FALSE(only_benign) << "mutant " << i << ": " << e.what();
      ++refused;
    }
  }
  // The mutants reach every layer: the loader, restore validation, and
  // a successful restore, also of benign mutants.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_GT(restored, benign);
  EXPECT_GT(benign, 0u);
}

}  // namespace
}  // namespace dq::serve
