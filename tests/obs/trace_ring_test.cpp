#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"

namespace dq::obs {
namespace {

Event at(double time, std::uint32_t id) {
  Event e;
  e.time = time;
  e.id = id;
  return e;
}

std::string ndjson_of(const MultiRunSink& sink) {
  std::ostringstream out;
  sink.write_ndjson(out);
  return out.str();
}

TEST(TraceRing, KeepsNewestDropsOldest) {
  TraceRing ring(4);
  for (std::uint32_t i = 0; i < 4; ++i) ring.push(at(i, i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.evicted(), 0u);
  for (std::uint32_t i = 4; i < 10; ++i) {
    ring.push(at(i, i));
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.evicted(), i - 3);
  }
  EXPECT_EQ(ring.evicted(), 6u);
  const std::vector<Event> events = ring.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and the retained window is the newest four events.
  for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].id, 6 + i);
}

TEST(TraceRing, ZeroCapacityDropsEverythingLoudly) {
  TraceRing ring(0);
  ring.push(at(1.0, 1));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.evicted(), 1u);
  ring.push(at(2.0, 2));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.evicted(), 2u);
}

TEST(TraceRing, ClearResetsEviction) {
  TraceRing ring(1);
  ring.push(at(1.0, 1));
  ring.push(at(2.0, 2));
  EXPECT_EQ(ring.evicted(), 1u);
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.evicted(), 0u);
  ring.push(at(3.0, 3));
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.evicted(), 0u);
}

TEST(Sink, NullSinkIsInert) {
  Sink s;
  EXPECT_FALSE(static_cast<bool>(s));
  s.emit(at(1.0, 1));  // must not crash
}

TEST(Sink, EmitCountsEveryDroppedEvent) {
  // Ring overflow must never be silent: the ring counts each eviction.
  MetricsRegistry reg;
  TraceRing ring(2);
  Sink s;
  s.metrics = &reg;
  s.trace = &ring;
  for (std::uint32_t i = 0; i < 5; ++i) s.emit(at(i, i));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.evicted(), 3u);
}

TEST(MultiRunSink, MetricsOnlyModeHasNoRings) {
  MultiRunSink sink(3, /*ring_capacity=*/0);
  EXPECT_FALSE(sink.tracing());
  EXPECT_EQ(sink.runs(), 3u);
  Sink s = sink.run_sink(1);
  EXPECT_NE(s.metrics, nullptr);
  EXPECT_EQ(s.trace, nullptr);
  s.emit(at(1.0, 1));  // dropped silently: no ring was requested
  EXPECT_TRUE(ndjson_of(sink).empty());
}

TEST(MultiRunSink, NdjsonConcatenatesRunsInIndexOrder) {
  MultiRunSink sink(2, 8);
  Event e0 = at(1.0, 10);
  Event e1 = at(0.5, 20);
  sink.run_sink(1).emit(e1);  // emitted first, but run 1 prints second
  sink.run_sink(0).emit(e0);
  EXPECT_EQ(ndjson_of(sink),
            "{\"t\":1,\"run\":0,\"kind\":\"infection\",\"node\":10}\n"
            "{\"t\":0.5,\"run\":1,\"kind\":\"infection\",\"node\":20}\n");
}

}  // namespace
}  // namespace dq::obs
