// Lock-free bounded single-producer / single-consumer ring queue — the
// transport between the serve router (one producer) and each shard
// worker (one consumer), and between each worker and the decision
// merger. One producer thread calls try_push, one consumer
// thread calls pop_batch (copying) or peek/consume (in place); head and
// tail live on separate cache lines and each side caches the other's
// index so the fast path is one relaxed load + one release store per
// batch.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace dq::serve {

/// Destructive-interference distance. A constant 64 rather than
/// std::hardware_destructive_interference_size: the value must not
/// vary with compiler flags (gcc warns it is ABI-unstable), and 64 is
/// right for every target this builds on.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscQueue(std::size_t capacity)
      : mask_(std::bit_ceil(capacity < 2 ? std::size_t{2} : capacity) - 1),
        slots_(mask_ + 1) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// Producer side. Returns false when the ring is full.
  bool try_push(const T& value) noexcept {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ > mask_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ > mask_) return false;
    }
    slots_[tail & mask_] = value;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side: pops up to `max` items into `out`, returning the
  /// count. One acquire load and one release store per batch.
  std::size_t pop_batch(T* out, std::size_t max) noexcept {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_)
      tail_cache_ = tail_.load(std::memory_order_acquire);
    std::size_t n = static_cast<std::size_t>(tail_cache_ - head);
    if (n == 0) return 0;
    if (n > max) n = max;
    for (std::size_t i = 0; i < n; ++i) out[i] = slots_[(head + i) & mask_];
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Consumer side, zero-copy: the item `i` places behind the oldest
  /// one, or nullptr when fewer than i + 1 items are queued. Peeked
  /// slots stay the consumer's until consume() frees them.
  const T* peek(std::size_t i) noexcept {
    const std::uint64_t at = head_.load(std::memory_order_relaxed) + i;
    if (at >= tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (at >= tail_cache_) return nullptr;
    }
    return &slots_[at & mask_];
  }

  /// Consumer side: frees the `n` oldest items, all already peeked.
  void consume(std::size_t n) noexcept {
    head_.store(head_.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
  }

  /// Approximate occupancy from any thread (the health sampler's
  /// queue-depth gauge): racy but always in [0, capacity] because the
  /// tail is read after the head.
  std::size_t size_approx() const noexcept {
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

 private:
  const std::uint64_t mask_;
  std::vector<T> slots_;
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(kCacheLine) std::uint64_t tail_cache_ = 0;   ///< consumer-owned
  alignas(kCacheLine) std::atomic<std::uint64_t> tail_{0};
  alignas(kCacheLine) std::uint64_t head_cache_ = 0;   ///< producer-owned
};

}  // namespace dq::serve
