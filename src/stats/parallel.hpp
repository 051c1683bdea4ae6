// The one fan-out loop for independent work items: a campaign's jobs
// and run_many's seeded runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dq {

/// Calls fn(i) exactly once for every i in [0, count) on up to
/// `max_workers` threads (0 means the hardware concurrency). Threads
/// take indices in ascending order from one shared counter; with one
/// worker or one item, everything runs inline on the caller. Returns
/// after every call has finished. If a call throws, no further indices
/// are handed out and the first exception is rethrown on the caller.
template <typename Fn>
void parallel_for(std::size_t count, std::size_t max_workers, Fn&& fn) {
  if (max_workers == 0)
    max_workers =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t workers = std::min(max_workers, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  const auto work = [&] {
    for (std::size_t i = next++; i < count; i = next++) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        next = count;
      }
    }
  };
  {
    // jthreads join on scope exit, also when a later spawn throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(work);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dq
