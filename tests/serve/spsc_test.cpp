#include "serve/spsc.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

namespace dq::serve {
namespace {

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(SpscQueue<int>(1024).capacity(), 1024u);
}

TEST(SpscQueue, FifoOrderAndFullEmpty) {
  SpscQueue<int> q(4);
  int out = 0;
  EXPECT_EQ(q.pop_batch(&out, 1), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(q.pop_batch(&out, 1), 1u);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.pop_batch(&out, 1), 0u);
}

TEST(SpscQueue, WrapAroundKeepsOrder) {
  SpscQueue<int> q(4);
  int out = 0;
  int next_push = 0, next_pop = 0;
  for (int round = 0; round < 100; ++round) {
    while (q.try_push(next_push)) ++next_push;
    ASSERT_EQ(q.pop_batch(&out, 1), 1u);
    EXPECT_EQ(out, next_pop++);
  }
}

TEST(SpscQueue, PopBatchDrainsInOrder) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(q.try_push(i));
  int batch[4];
  ASSERT_EQ(q.pop_batch(batch, 4), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[i], i);
  ASSERT_EQ(q.pop_batch(batch, 4), 2u);
  EXPECT_EQ(batch[0], 4);
  EXPECT_EQ(batch[1], 5);
  EXPECT_EQ(q.pop_batch(batch, 4), 0u);
}

TEST(SpscQueue, PeekedSlotsStayTakenUntilConsumed) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.peek(0), nullptr);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(q.try_push(i));
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(q.peek(static_cast<std::size_t>(i)), nullptr);
    EXPECT_EQ(*q.peek(static_cast<std::size_t>(i)), i);
  }
  EXPECT_EQ(q.peek(4), nullptr);
  EXPECT_FALSE(q.try_push(4));  // peeking freed nothing
  q.consume(3);
  EXPECT_TRUE(q.try_push(4));
  ASSERT_NE(q.peek(1), nullptr);
  EXPECT_EQ(*q.peek(0), 3);
  EXPECT_EQ(*q.peek(1), 4);
}

TEST(SpscQueue, TwoThreadTransferIsLossless) {
  constexpr std::uint64_t kCount = 200'000;
  SpscQueue<std::uint64_t> q(256);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i)
      while (!q.try_push(i)) std::this_thread::yield();
  });
  std::uint64_t expected = 0, sum = 0;
  std::uint64_t batch[64];
  bool ordered = true;
  while (expected < kCount) {
    const std::size_t n = q.pop_batch(batch, 64);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      ordered = ordered && batch[i] == expected++;
      sum += batch[i];
    }
  }
  producer.join();
  EXPECT_EQ(q.pop_batch(batch, 64), 0u);  // nothing beyond kCount
  EXPECT_TRUE(ordered);
  EXPECT_EQ(expected, kCount);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

TEST(SpscQueue, TwoThreadPeekConsumeIsLossless) {
  // Multi-word slots, so a slot read while the producer rewrites it
  // would show up as a torn value.
  using Slot = std::array<std::uint64_t, 4>;
  constexpr std::uint64_t kCount = 200'000;
  SpscQueue<Slot> q(256);
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kCount; ++i)
      while (!q.try_push(Slot{i, i, i, i})) std::this_thread::yield();
  });
  std::uint64_t expected = 0;
  bool intact = true;
  while (expected < kCount) {
    std::size_t n = 0;
    while (n < 64) {
      const Slot* s = q.peek(n);
      if (s == nullptr) break;
      intact = intact && (*s)[0] == expected && (*s)[3] == expected;
      ++expected;
      ++n;
    }
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    q.consume(n);
  }
  producer.join();
  EXPECT_EQ(q.peek(0), nullptr);  // nothing beyond kCount
  EXPECT_TRUE(intact);
  EXPECT_EQ(expected, kCount);
}

}  // namespace
}  // namespace dq::serve
