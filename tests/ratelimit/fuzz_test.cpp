// Randomized invariant sweeps over the rate-limiting mechanisms: drive
// each limiter with adversarial random traffic (bursts, repeats, time
// gaps) and assert its contract holds throughout. Parameterized over
// RNG seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "ratelimit/dns_throttle.hpp"
#include "ratelimit/sliding_window.hpp"
#include "ratelimit/williamson.hpp"
#include "stats/rng.hpp"

namespace dq::ratelimit {
namespace {

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

/// Generates a bursty contact stream: mostly a small working set,
/// occasional bursts of fresh addresses, random gaps.
struct TrafficGen {
  Rng rng;
  double t = 0.0;
  IpAddress fresh = 1 << 20;

  explicit TrafficGen(std::uint64_t seed) : rng(seed) {}

  std::pair<Seconds, IpAddress> next() {
    t += rng.exponential(rng.bernoulli(0.1) ? 0.2 : 5.0);
    if (rng.bernoulli(0.6))
      return {t, static_cast<IpAddress>(rng.uniform_int(8))};  // repeats
    return {t, fresh++};
  }
};

TEST_P(FuzzSweep, SlidingWindowNeverExceedsLimit) {
  SlidingWindowLimiter limiter(5.0, 10);
  TrafficGen gen(GetParam());
  for (int i = 0; i < 20000; ++i) {
    const auto [now, dest] = gen.next();
    limiter.allow(now, dest);
    ASSERT_LE(limiter.distinct_in_window(now), 10u);
  }
}

TEST_P(FuzzSweep, WilliamsonConservation) {
  WilliamsonConfig config;
  config.working_set_size = 4;
  config.clock_period = 1.0;
  config.queue_cap = 50;
  WilliamsonThrottle throttle(config);
  TrafficGen gen(GetParam());
  std::uint64_t allowed = 0, delayed = 0, dropped = 0;
  double now = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto [t, dest] = gen.next();
    now = t;
    const Outcome outcome = throttle.submit(now, dest);
    switch (outcome.action) {
      case Action::kAllow:
        ++allowed;
        EXPECT_DOUBLE_EQ(outcome.release_time, now);
        break;
      case Action::kDelay:
        ++delayed;
        EXPECT_GT(outcome.release_time, now);
        break;
      case Action::kDrop:
        ++dropped;
        break;
    }
    // The queue never exceeds its cap.
    ASSERT_LE(throttle.queue_length(now), 50u);
  }
  EXPECT_EQ(allowed + delayed + dropped, 20000u);
  EXPECT_EQ(throttle.dropped(), dropped);
}

TEST_P(FuzzSweep, WilliamsonReleaseTimesAreSpaced) {
  WilliamsonConfig config;
  config.working_set_size = 2;
  config.clock_period = 1.0;
  config.queue_cap = 0;
  WilliamsonThrottle throttle(config);
  Rng rng(GetParam());
  // Burst of fresh destinations at a single instant: release times must
  // serialize at >= one per period.
  std::vector<double> releases;
  for (IpAddress ip = 100; ip < 140; ++ip) {
    const Outcome outcome = throttle.submit(7.0, ip);
    if (outcome.action == Action::kDelay)
      releases.push_back(outcome.release_time);
  }
  ASSERT_GE(releases.size(), 30u);
  std::sort(releases.begin(), releases.end());
  for (std::size_t i = 1; i < releases.size(); ++i)
    EXPECT_GE(releases[i] - releases[i - 1], 1.0 - 1e-9);
}

TEST_P(FuzzSweep, DnsThrottleNeverBlocksKnownDestinations) {
  DnsThrottle throttle(DnsThrottleConfig{});
  Rng rng(GetParam());
  std::map<IpAddress, double> dns_valid_until;
  double now = 0.0;
  for (int i = 0; i < 5000; ++i) {
    now += rng.exponential(1.0);
    const IpAddress ip = static_cast<IpAddress>(rng.uniform_int(64));
    const int action = static_cast<int>(rng.uniform_int(3));
    if (action == 0) {
      const double ttl = rng.uniform(1.0, 300.0);
      throttle.record_dns(now, ip, ttl);
      dns_valid_until[ip] = std::max(dns_valid_until[ip], now + ttl);
    } else if (action == 1) {
      throttle.record_inbound(ip);
      dns_valid_until[ip] =
          std::max(dns_valid_until[ip], 1e18);  // peers stay known
    } else {
      const bool known = dns_valid_until.contains(ip) &&
                         dns_valid_until[ip] > now;
      const bool allowed = throttle.allow(now, ip);
      if (known) {
        EXPECT_TRUE(allowed);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u,
                                           77u, 88u));

}  // namespace
}  // namespace dq::ratelimit
