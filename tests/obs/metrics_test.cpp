#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace dq::obs {
namespace {

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry reg;
  Counter& a = reg.counter("sim.ticks");
  Counter& b = reg.counter("sim.ticks");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  Gauge& g = reg.gauge("load");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(reg.gauge("load").value(), 2.5);

  Histogram& h = reg.histogram("latency");
  h.record(4);
  EXPECT_EQ(reg.histogram("latency").count(), 1u);
}

TEST(Histogram, PowerOfTwoBoundariesAreExact) {
  // Bucket 0 is exactly {0}; bucket b >= 1 covers [2^(b-1), 2^b - 1],
  // so 2^k and 2^k - 1 must land in adjacent buckets for every k.
  Histogram h;
  h.record(0);
  EXPECT_EQ(h.bucket(0), 1u);
  for (std::size_t k = 1; k < 64; ++k) {
    Histogram fresh;
    const std::uint64_t pow2 = std::uint64_t{1} << k;
    fresh.record(pow2);
    fresh.record(pow2 - 1);
    EXPECT_EQ(fresh.bucket(k + 1), 1u) << "2^" << k << " bucket";
    EXPECT_EQ(fresh.bucket(k), 1u) << "2^" << k << "-1 bucket";
    EXPECT_EQ(Histogram::bucket_lower_bound(k + 1), pow2);
    EXPECT_EQ(Histogram::bucket_upper_bound(k), pow2 - 1);
  }
  EXPECT_EQ(Histogram::bucket_lower_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper_bound(64), ~std::uint64_t{0});
}

TEST(Histogram, CountAndSumTrackRecords) {
  Histogram h;
  h.record(1);
  h.record(2);
  h.record(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1003u);
}

TEST(Histogram, RecordCountsEqualsRecordingEachValue) {
  const std::vector<std::uint64_t> values = {0, 1, 7, 8, 1000, 1000,
                                             ~std::uint64_t{0} >> 1};
  Histogram one_by_one;
  Histogram folded;
  std::array<std::uint64_t, Histogram::kBuckets> counts{};
  std::uint64_t sum = 0;
  for (const std::uint64_t v : values) {
    one_by_one.record(v);
    ++counts[std::bit_width(v)];
    sum += v;
  }
  folded.record(5);  // folding adds to what is already there
  one_by_one.record(5);
  folded.record_counts(counts, sum);
  EXPECT_EQ(folded.count(), one_by_one.count());
  EXPECT_EQ(folded.sum(), one_by_one.sum());
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b)
    EXPECT_EQ(folded.bucket(b), one_by_one.bucket(b)) << "bucket " << b;
}

TEST(MetricsRegistry, SnapshotIsCanonicalAndSorted) {
  MetricsRegistry reg;
  reg.counter("z.last").add(2);
  reg.counter("a.first").add(1);
  reg.histogram("h").record(4);  // bucket 3 = [4,7]
  const std::string json = reg.snapshot().dump();
  EXPECT_EQ(json,
            "{\"counters\":{\"a.first\":1,\"z.last\":2},\"gauges\":{},"
            "\"histograms\":{\"h\":{\"count\":1,\"sum\":4,"
            "\"buckets\":[[4,1]]}}}");
}

TEST(MetricsRegistry, DeterministicSnapshotExcludesWallClockMetrics) {
  MetricsRegistry reg;
  reg.counter("sim.ticks").add(50);
  reg.counter("trace.dropped", Determinism::kWallClock).add(7);
  reg.gauge("mem.bytes").set(123.0);  // gauges default to kWallClock
  reg.histogram("sim.run_micros", Determinism::kWallClock).record(80);

  const campaign::JsonValue full = reg.snapshot(false);
  EXPECT_NE(full.find("counters")->find("trace.dropped"), nullptr);
  EXPECT_NE(full.find("gauges")->find("mem.bytes"), nullptr);
  EXPECT_NE(full.find("histograms")->find("sim.run_micros"), nullptr);

  const campaign::JsonValue det = reg.snapshot(true);
  EXPECT_NE(det.find("counters")->find("sim.ticks"), nullptr);
  EXPECT_EQ(det.find("counters")->find("trace.dropped"), nullptr);
  EXPECT_EQ(det.find("gauges")->find("mem.bytes"), nullptr);
  EXPECT_EQ(det.find("histograms")->find("sim.run_micros"), nullptr);
}

TEST(MetricsRegistry, MergeSnapshotSumsCountersAndHistograms) {
  MetricsRegistry a;
  a.counter("sim.ticks").add(10);
  a.histogram("h").record(4);
  MetricsRegistry b;
  b.counter("sim.ticks").add(5);
  b.counter("sim.runs").add(1);
  b.histogram("h").record(5);   // same bucket [4,7]
  b.histogram("h").record(64);  // bucket 7

  campaign::JsonValue total;
  MetricsRegistry::merge_snapshot(total, a.snapshot());
  MetricsRegistry::merge_snapshot(total, b.snapshot());

  EXPECT_EQ(total.find("counters")->find("sim.ticks")->as_uint(), 15u);
  EXPECT_EQ(total.find("counters")->find("sim.runs")->as_uint(), 1u);
  const campaign::JsonValue* h = total.find("histograms")->find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->find("count")->as_uint(), 3u);
  EXPECT_EQ(h->find("sum")->as_uint(), 73u);
}

TEST(MetricsRegistry, MergeIsOrderInsensitiveForCounters) {
  MetricsRegistry a;
  a.counter("x").add(1);
  MetricsRegistry b;
  b.counter("x").add(2);
  campaign::JsonValue ab, ba;
  MetricsRegistry::merge_snapshot(ab, a.snapshot());
  MetricsRegistry::merge_snapshot(ab, b.snapshot());
  MetricsRegistry::merge_snapshot(ba, b.snapshot());
  MetricsRegistry::merge_snapshot(ba, a.snapshot());
  EXPECT_EQ(ab.dump(), ba.dump());
}

TEST(Labeled, SortsKeysForStableNames) {
  EXPECT_EQ(labeled("drops", {{"kind", "worm"}, {"dir", "in"}}),
            "drops{dir=in,kind=worm}");
  EXPECT_EQ(labeled("drops", {{"dir", "in"}, {"kind", "worm"}}),
            "drops{dir=in,kind=worm}");
  EXPECT_EQ(labeled("plain", {}), "plain");
}

TEST(HistogramQuantile, EmptyHistogramIsZeroForAnyQ) {
  Histogram h;
  EXPECT_EQ(histogram_quantile(h, 0.0), 0u);
  EXPECT_EQ(histogram_quantile(h, 0.5), 0u);
  EXPECT_EQ(histogram_quantile(h, 1.0), 0u);
}

TEST(HistogramQuantile, SingleSampleIsItsBucketForAnyQ) {
  Histogram h;
  h.record(100);  // bucket [64, 127]
  const std::uint64_t upper = 127;
  EXPECT_EQ(histogram_quantile(h, 0.0), upper);
  EXPECT_EQ(histogram_quantile(h, 0.5), upper);
  EXPECT_EQ(histogram_quantile(h, 0.999), upper);
  EXPECT_EQ(histogram_quantile(h, 1.0), upper);
}

TEST(HistogramQuantile, ExtremeQClampsInsteadOfOverOrUnderflowing) {
  Histogram h;
  h.record(1);
  h.record(1000);  // bucket [512, 1023]
  // q <= 0 clamps to rank 1 (smallest bucket); q >= 1 to rank count.
  EXPECT_EQ(histogram_quantile(h, -3.0), 1u);
  EXPECT_EQ(histogram_quantile(h, 0.0), 1u);
  EXPECT_EQ(histogram_quantile(h, 1.0), 1023u);
  EXPECT_EQ(histogram_quantile(h, 7.0), 1023u);
}

TEST(HistogramQuantile, NanQBehavesLikeZero) {
  Histogram h;
  h.record(1);
  h.record(1000);
  EXPECT_EQ(histogram_quantile(h, std::nan("")),
            histogram_quantile(h, 0.0));
}

TEST(HistogramQuantile, RanksSplitAcrossBuckets) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);    // bucket [8, 15]
  for (int i = 0; i < 10; ++i) h.record(5000);  // bucket [4096, 8191]
  EXPECT_EQ(histogram_quantile(h, 0.5), 15u);
  EXPECT_EQ(histogram_quantile(h, 0.90), 15u);   // rank 90: last in low
  EXPECT_EQ(histogram_quantile(h, 0.901), 8191u);
  EXPECT_EQ(histogram_quantile(h, 0.99), 8191u);
}

TEST(MetricsRegistry, ConcurrentUpdatesCommuteToExactTotals) {
  // Counter adds and histogram records are commutative relaxed atomics:
  // the final snapshot must be exact regardless of interleaving.
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  Histogram& h = reg.histogram("values");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c, &h] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(2);
        h.record(8);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), 2u * kThreads * kPerThread);
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket(4), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

}  // namespace
}  // namespace dq::obs
