// Worm target-selection strategies.
//
// The paper analyzes random propagation (Code Red I) and
// local-preferential selection (Blaster-style subnet scanning). The
// related work it builds on — Staniford, Paxson & Weaver, "How to 0wn
// the Internet in Your Spare Time" — catalogs further strategies that
// this module implements so rate limiting can be evaluated against
// them too:
//
//   kRandom           — uniform pseudo-random targets.
//   kLocalPreferential — biased toward the scanner's own subnet.
//   kSequential       — scan ids in order from a random start (what
//                       Blaster actually did across subnets).
//   kPermutation      — all instances walk a shared pseudo-random
//                       permutation of the address space from
//                       different offsets, avoiding duplicate work.
//   kHitlist          — a precomputed list of known targets is scanned
//                       first (Warhol-worm startup), then random.
//
// The simulator's node-id space stands in for the worm's 32-bit
// address space: "addresses" that would miss (unused space) are
// abstracted away, so strategies differ only in how efficiently they
// cover live nodes — which is exactly what matters for contact-rate
// limiting.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "stats/rng.hpp"

namespace dq::worm {

using graph::NodeId;

enum class ScanStrategy : std::uint8_t {
  kRandom,
  kLocalPreferential,
  kSequential,
  kPermutation,
  kHitlist,
};

struct TargetSelectorConfig {
  ScanStrategy strategy = ScanStrategy::kRandom;
  /// Probability a local-preferential scan stays in-subnet.
  double local_bias = 0.8;
  /// Hitlist size for kHitlist (clamped to the population).
  std::uint32_t hitlist_size = 100;
};

/// Per-outbreak target selection state (sequential cursors, the shared
/// permutation, the hitlist). One instance per simulation run.
class TargetSelector {
 public:
  /// subnet_of/subnet_members are *borrowed* const views — typically
  /// the vectors owned by sim::Network, which outlives every run over
  /// it. Either may be nullptr (or point at an empty vector) when the
  /// topology has no subnets; local-preferential then degrades to
  /// random, as in the paper's simulator. Borrowing instead of copying
  /// keeps selector construction O(1) — the old per-run deep copy was
  /// O(N) and dominated run_many setup at scale. `seed` fixes the
  /// permutation/hitlist/cursors.
  TargetSelector(const TargetSelectorConfig& config, std::size_t num_nodes,
                 const std::vector<std::size_t>* subnet_of,
                 const std::vector<std::vector<NodeId>>* subnet_members,
                 std::uint64_t seed);

  /// Picks the next target for `scanner` (never the scanner itself).
  /// Per-scanner state (sequential/permutation cursors, hitlist walks)
  /// lives in flat arrays indexed by scanner, so concurrent calls for
  /// distinct scanners, each with its own Rng, never touch the same
  /// memory: one pick serves every strategy on every shard.
  NodeId pick(NodeId scanner, Rng& rng);

  /// The hitlist (empty unless kHitlist); exposed for tests.
  const std::vector<NodeId>& hitlist() const noexcept { return hitlist_; }

 private:
  NodeId pick_random(NodeId scanner, Rng& rng) const;
  NodeId pick_local(NodeId scanner, Rng& rng) const;
  NodeId advance_cursor(NodeId scanner);

  bool has_subnets() const noexcept {
    return subnet_of_ != nullptr && !subnet_of_->empty();
  }

  TargetSelectorConfig config_;
  std::size_t num_nodes_;
  UniformBound node_bound_;  ///< num_nodes_, for uniform draws over ids
  const std::vector<std::size_t>* subnet_of_;                // borrowed
  const std::vector<std::vector<NodeId>>* subnet_members_;   // borrowed

  /// kSequential / kPermutation: per-scanner position in the scan
  /// order.
  std::vector<std::uint32_t> cursor_;
  /// kHitlist: every instance carries the full list (Warhol-style
  /// startup) and walks all of it with its own cursor. Scanners start
  /// at offsets spread across the list (instances of a real hitlist
  /// worm randomize their starting point so they don't duplicate
  /// effort) and wrap around, so each covers every entry exactly once;
  /// entries naming the scanner itself are skipped without burning
  /// them for anybody else. hitlist_pos_[s] is scanner s's cyclic
  /// position, hitlist_remaining_[s] the entries it has yet to visit.
  std::vector<std::uint32_t> hitlist_pos_;
  std::vector<std::uint32_t> hitlist_remaining_;
  /// kPermutation: target = (a * position + b) mod N with gcd(a,N)=1.
  std::uint64_t perm_a_ = 1;
  std::uint64_t perm_b_ = 0;
  std::vector<NodeId> hitlist_;
};

}  // namespace dq::worm
