// Memory-budget assertions for the shared-bitmap detector backend: ten
// million tracked hosts must fit detector state in single-digit bytes
// per host and hold a fixed peak-RSS budget while absorbing traffic.
// (The exact backend's DetectorState alone is 24 B/host before
// allocator overhead — the compact store is what makes 10^7 hosts
// feasible. QuarantineEngine's policy records are a separate slab,
// unchanged by the backend choice, so this test measures the store.)
// A checkpoint at 2^20 hosts must also load within the same budget.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "quarantine/compact_store.hpp"
#include "quarantine/snapshot.hpp"
#include "serve/checkpoint.hpp"
#include "stats/hash.hpp"

namespace dq::quarantine {
namespace {

/// Peak RSS (VmHWM) in bytes; 0 when /proc is unavailable.
std::size_t peak_rss() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  std::size_t peak = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      peak = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10)) *
             1024;
      break;
    }
  }
  std::fclose(f);
  return peak;
}

/// The peak-RSS budget both tests hold; it leaves headroom for gtest,
/// the allocator, and sanitizer shadow.
constexpr std::size_t kBudgetBytes = 512ull << 20;

DetectorSettings failure_detector() {
  DetectorSettings settings;
  settings.window = 5.0;
  settings.contact_rate_threshold = 0.0;
  settings.distinct_dest_threshold = 0.0;
  settings.failure_ratio_threshold = 0.7;
  settings.failure_min_attempts = 3;
  return settings;
}

TEST(CompactScale, TenMillionHostsWithinMemoryBudget) {
  // ~76 MB of pools+cells at the default geometry.
  constexpr std::size_t kHosts = 10'000'000;

  const DetectorSettings settings = failure_detector();
  CompactSettings compact;  // defaults: 256-host blocks, 6 bits, v=64

  CompactEstimatorStore store(kHosts, settings, compact);
  EXPECT_LE(store.bytes_per_host(), 8.0);
  EXPECT_LE(store.memory_bytes(), kHosts * 8ull);

  // Touch the store for real: a scanning minority plus background
  // chatter across the full host range, five window rolls.
  std::uint64_t strikes = 0;
  for (std::uint64_t i = 0; i < 4'000'000; ++i) {
    const std::uint64_t r = mix64(i * 0x9e3779b97f4a7c15ULL + 1);
    const auto host = static_cast<std::uint32_t>(r % kHosts);
    const bool worm = host % 97 == 0;
    const double now = static_cast<double>(i) * 6.25e-6;  // 25 s total
    const std::uint64_t dest = worm ? mix64(r) : host % 1024;
    const ObservationOutcome out = store.observe(host, now, dest, worm);
    strikes += out.strike ? 1 : 0;
  }
  EXPECT_GT(strikes, 0u);  // the detector actually ran at scale

  const std::size_t peak = peak_rss();
  if (peak == 0) GTEST_SKIP() << "VmHWM unavailable";
  EXPECT_LT(peak, kBudgetBytes)
      << "peak RSS " << peak / (1 << 20) << " MiB over budget";
}

TEST(CompactScale, MillionHostCheckpointLoadsWithinMemoryBudget) {
  // The file is ~30 MB and its typed arrays ~100 MB; a JSON tree of it
  // would take ~1.7 GB (112-byte nodes, one per column entry).
  constexpr std::uint32_t kHosts = 1u << 20;
  QuarantineConfig config;
  config.enabled = true;
  config.detector = failure_detector();
  config.estimator_backend = EstimatorBackend::kSharedBitmap;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("dq_compact_scale_" + std::to_string(::getpid()) + ".json"))
          .string();
  {
    // A checkpoint of fresh hosts: no server, no flows.
    serve::CheckpointState state;
    state.num_hosts = kHosts;
    state.config = config_to_json(config);
    state.label_time.assign(kHosts, -1.0);
    state.hosts.records.resize(kHosts);
    state.hosts.detectors.resize(kHosts);
    const CompactEstimatorStore store(kHosts, config.detector,
                                      config.compact);
    StoreArrays& arrays = state.store.emplace();
    for (std::size_t b = 0; b < store.num_blocks(); ++b)
      gather_block(arrays, store, b);
    serve::write_checkpoint_file(path, state);
  }
  const serve::CheckpointState back = serve::load_checkpoint_file(path);
  std::filesystem::remove(path);
  EXPECT_EQ(back.num_hosts, kHosts);
  EXPECT_EQ(back.hosts.detectors.size(), kHosts);
  ASSERT_TRUE(back.store.has_value());
  EXPECT_EQ(back.store->window.size(), kHosts / config.compact.block_hosts);

  const std::size_t peak = peak_rss();
  if (peak == 0) GTEST_SKIP() << "VmHWM unavailable";
  EXPECT_LT(peak, kBudgetBytes)
      << "peak RSS " << peak / (1 << 20) << " MiB over budget";
}

}  // namespace
}  // namespace dq::quarantine
