#include "stats/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace dq {
namespace {

TEST(ParallelFor, CallsEachIndexExactlyOnce) {
  for (std::size_t count : {0, 1, 100}) {
    for (std::size_t workers : {0, 1, 3, 200}) {
      SCOPED_TRACE("count " + std::to_string(count) + ", max_workers " +
                   std::to_string(workers));
      std::vector<std::atomic<int>> calls(count);
      parallel_for(count, workers,
                   [&](std::size_t i) { calls.at(i).fetch_add(1); });
      for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(calls[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ParallelFor, RethrowsAFailedCallOnTheCaller) {
  for (std::size_t workers : {1, 3}) {
    SCOPED_TRACE("max_workers " + std::to_string(workers));
    EXPECT_THROW(parallel_for(100, workers,
                              [](std::size_t i) {
                                if (i == 10) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace dq
