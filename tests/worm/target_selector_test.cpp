#include "worm/target_selector.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace dq::worm {
namespace {

TargetSelectorConfig config(ScanStrategy strategy) {
  TargetSelectorConfig c;
  c.strategy = strategy;
  return c;
}

TargetSelector make(ScanStrategy strategy, std::size_t n = 100,
                    std::uint64_t seed = 1) {
  return TargetSelector(config(strategy), n, {}, {}, seed);
}

TEST(TargetSelector, Validation) {
  EXPECT_THROW(TargetSelector(config(ScanStrategy::kRandom), 1, {}, {}, 1),
               std::invalid_argument);
  TargetSelectorConfig bad = config(ScanStrategy::kLocalPreferential);
  bad.local_bias = 1.5;
  EXPECT_THROW(TargetSelector(bad, 10, {}, {}, 1), std::invalid_argument);
  const std::vector<std::size_t> wrong_size(3, 0);
  EXPECT_THROW(
      TargetSelector(config(ScanStrategy::kRandom), 10, &wrong_size, {}, 1),
      std::invalid_argument);
}

TEST(TargetSelector, NeverPicksSelf) {
  for (ScanStrategy s :
       {ScanStrategy::kRandom, ScanStrategy::kSequential,
        ScanStrategy::kPermutation, ScanStrategy::kHitlist}) {
    TargetSelector selector = make(s, 20);
    Rng rng(7);
    for (int i = 0; i < 500; ++i)
      EXPECT_NE(selector.pick(3, rng), 3u) << static_cast<int>(s);
  }
}

TEST(TargetSelector, RandomCoversPopulation) {
  TargetSelector selector = make(ScanStrategy::kRandom, 10);
  Rng rng(2);
  std::set<graph::NodeId> seen;
  for (int i = 0; i < 500; ++i) seen.insert(selector.pick(0, rng));
  EXPECT_EQ(seen.size(), 9u);
}

TEST(TargetSelector, SequentialWalksInOrder) {
  TargetSelector selector = make(ScanStrategy::kSequential, 50);
  Rng rng(3);
  const graph::NodeId first = selector.pick(7, rng);
  const graph::NodeId second = selector.pick(7, rng);
  // Consecutive ids modulo N (skipping the scanner itself).
  graph::NodeId expected = (first + 1) % 50;
  if (expected == 7) expected = (expected + 1) % 50;
  EXPECT_EQ(second, expected);
}

TEST(TargetSelector, SequentialCoversEverythingInNScans) {
  TargetSelector selector = make(ScanStrategy::kSequential, 30);
  Rng rng(4);
  std::set<graph::NodeId> seen;
  for (int i = 0; i < 29; ++i) seen.insert(selector.pick(5, rng));
  EXPECT_EQ(seen.size(), 29u);  // everyone except the scanner, no repeats
}

TEST(TargetSelector, PermutationCoversEverythingInNScans) {
  TargetSelector selector = make(ScanStrategy::kPermutation, 64);
  Rng rng(5);
  std::set<graph::NodeId> seen;
  for (int i = 0; i < 63; ++i) seen.insert(selector.pick(9, rng));
  EXPECT_EQ(seen.size(), 63u);
}

TEST(TargetSelector, PermutationScannersStartAtDifferentOffsets) {
  TargetSelector selector = make(ScanStrategy::kPermutation, 1000);
  Rng rng(6);
  // Different scanners should (almost surely) start elsewhere in the
  // permutation — the strategy's whole point is partitioned coverage.
  const graph::NodeId a = selector.pick(1, rng);
  const graph::NodeId b = selector.pick(2, rng);
  const graph::NodeId c = selector.pick(3, rng);
  EXPECT_FALSE(a == b && b == c);
}

TEST(TargetSelector, HitlistScannedFirstThenRandom) {
  TargetSelectorConfig c = config(ScanStrategy::kHitlist);
  c.hitlist_size = 5;
  TargetSelector selector(c, 100, {}, {}, 7);
  ASSERT_EQ(selector.hitlist().size(), 5u);
  Rng rng(8);
  // The first picks are exactly the hitlist (cyclically from the
  // scanner's own offset), scanner absent.
  std::set<graph::NodeId> first_picks;
  for (int i = 0; i < 5; ++i) first_picks.insert(selector.pick(99, rng));
  const std::set<graph::NodeId> expected(selector.hitlist().begin(),
                                         selector.hitlist().end());
  EXPECT_EQ(first_picks, expected);
  // Further picks fall back to random but remain valid.
  for (int i = 0; i < 50; ++i) {
    const graph::NodeId t = selector.pick(99, rng);
    EXPECT_LT(t, 100u);
    EXPECT_NE(t, 99u);
  }
}

TEST(TargetSelector, HitlistEachScannerCoversFullList) {
  // Regression: the cursor used to be shared across scanners, so the
  // list was consumed once globally; every scanner must cover it.
  TargetSelectorConfig c = config(ScanStrategy::kHitlist);
  c.hitlist_size = 8;
  TargetSelector selector(c, 100, {}, {}, 11);
  ASSERT_EQ(selector.hitlist().size(), 8u);
  const std::set<graph::NodeId> expected(selector.hitlist().begin(),
                                         selector.hitlist().end());
  Rng rng(12);
  std::vector<graph::NodeId> scanners;  // two scanners not on the list
  for (graph::NodeId v = 0; scanners.size() < 2; ++v)
    if (expected.count(v) == 0) scanners.push_back(v);
  for (graph::NodeId scanner : scanners) {
    std::set<graph::NodeId> picks;
    for (int i = 0; i < 8; ++i) picks.insert(selector.pick(scanner, rng));
    EXPECT_EQ(picks, expected) << "scanner " << scanner;
  }
}

TEST(TargetSelector, HitlistSelfEntryNotBurnedForOthers) {
  // Regression: a list entry equal to the current scanner used to be
  // consumed from the shared cursor, so nobody ever scanned it. Each
  // scanner must still cover every *other* entry, and a scanner that
  // appears on the list covers the whole list minus itself.
  TargetSelectorConfig c = config(ScanStrategy::kHitlist);
  c.hitlist_size = 6;
  TargetSelector selector(c, 6, {}, {}, 13);  // list == whole population
  ASSERT_EQ(selector.hitlist().size(), 6u);
  Rng rng(14);
  const graph::NodeId scanner = selector.hitlist()[2];
  std::set<graph::NodeId> picks;
  for (int i = 0; i < 5; ++i) picks.insert(selector.pick(scanner, rng));
  EXPECT_EQ(picks.size(), 5u);
  EXPECT_EQ(picks.count(scanner), 0u);
}

TEST(TargetSelector, HitlistClampedToPopulation) {
  TargetSelectorConfig c = config(ScanStrategy::kHitlist);
  c.hitlist_size = 1000;
  TargetSelector selector(c, 10, {}, {}, 9);
  EXPECT_EQ(selector.hitlist().size(), 10u);
}

TEST(TargetSelector, LocalPreferentialUsesSubnets) {
  // Two subnets of 5; scanner 0 is in subnet 0.
  std::vector<std::size_t> subnet_of = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  std::vector<std::vector<graph::NodeId>> members = {{0, 1, 2, 3, 4},
                                                     {5, 6, 7, 8, 9}};
  TargetSelectorConfig c = config(ScanStrategy::kLocalPreferential);
  c.local_bias = 0.9;
  TargetSelector selector(c, 10, &subnet_of, &members, 10);
  Rng rng(11);
  int local = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i)
    if (selector.pick(0, rng) < 5) ++local;
  // ~0.9 + 0.1*4/9 of picks stay local.
  EXPECT_NEAR(static_cast<double>(local) / n, 0.9 + 0.1 * 4.0 / 9.0, 0.03);
}

TEST(TargetSelector, MemorylessPicksDependOnlyOnTheRng) {
  // Random and local-preferential picks read no selector state: two
  // selectors with different seeds, fed equal Rng streams, agree.
  std::vector<std::size_t> subnet_of = {0, 0, 0, 0, 0, 1, 1, 1, 1, 1};
  std::vector<std::vector<graph::NodeId>> members = {{0, 1, 2, 3, 4},
                                                     {5, 6, 7, 8, 9}};
  for (ScanStrategy s :
       {ScanStrategy::kRandom, ScanStrategy::kLocalPreferential}) {
    TargetSelector a(config(s), 10, &subnet_of, &members, 21);
    TargetSelector b(config(s), 10, &subnet_of, &members, 22);
    Rng ra(3), rb(3);
    for (int i = 0; i < 200; ++i) EXPECT_EQ(a.pick(0, ra), b.pick(0, rb));
  }
}

TEST(TargetSelector, CursorStrategiesKeepPerScannerState) {
  // A scanner's walk is its own: picks by other scanners in between
  // never shift it. This is what lets every shard pick concurrently.
  for (ScanStrategy s : {ScanStrategy::kSequential, ScanStrategy::kPermutation,
                         ScanStrategy::kHitlist}) {
    TargetSelectorConfig c = config(s);
    c.hitlist_size = 12;
    TargetSelector alone(c, 20, nullptr, nullptr, 5);
    TargetSelector shared(c, 20, nullptr, nullptr, 5);
    Rng ra(8), rb(8), other(9);
    for (int i = 0; i < 40; ++i) {
      shared.pick(static_cast<graph::NodeId>(i % 7 + 4), other);
      EXPECT_EQ(alone.pick(1, ra), shared.pick(1, rb)) << "pick " << i;
    }
  }
}

TEST(TargetSelector, LocalPreferentialWithoutSubnetsIsRandom) {
  TargetSelector selector = make(ScanStrategy::kLocalPreferential, 10);
  Rng rng(12);
  std::set<graph::NodeId> seen;
  for (int i = 0; i < 500; ++i) seen.insert(selector.pick(0, rng));
  EXPECT_EQ(seen.size(), 9u);
}

TEST(TargetSelector, DeterministicForSeed) {
  TargetSelector a = make(ScanStrategy::kPermutation, 100, 42);
  TargetSelector b = make(ScanStrategy::kPermutation, 100, 42);
  Rng ra(1), rb(1);
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(a.pick(3, ra), b.pick(3, rb));
}

}  // namespace
}  // namespace dq::worm
