#include "worm/target_selector.hpp"

#include <numeric>
#include <stdexcept>

namespace dq::worm {

TargetSelector::TargetSelector(
    const TargetSelectorConfig& config, std::size_t num_nodes,
    const std::vector<std::size_t>* subnet_of,
    const std::vector<std::vector<NodeId>>* subnet_members, std::uint64_t seed)
    : config_(config),
      num_nodes_(num_nodes),
      node_bound_(num_nodes),
      subnet_of_(subnet_of),
      subnet_members_(subnet_members) {
  if (num_nodes_ < 2)
    throw std::invalid_argument("TargetSelector: need at least 2 nodes");
  if (config.local_bias < 0.0 || config.local_bias > 1.0)
    throw std::invalid_argument("TargetSelector: local bias in [0,1]");
  if (has_subnets() && subnet_of_->size() != num_nodes_)
    throw std::invalid_argument("TargetSelector: subnet_of size mismatch");
  if (has_subnets() && subnet_members_ == nullptr)
    throw std::invalid_argument(
        "TargetSelector: subnet_of without subnet_members");

  Rng rng(seed);
  switch (config_.strategy) {
    case ScanStrategy::kSequential:
    case ScanStrategy::kPermutation: {
      cursor_.resize(num_nodes_);
      for (auto& c : cursor_)
        c = static_cast<std::uint32_t>(rng.uniform_int(node_bound_));
      if (config_.strategy == ScanStrategy::kPermutation) {
        // Pick a multiplier coprime to N (odd steps from a random
        // start always find one).
        perm_a_ = rng.uniform_int(num_nodes_ - 1) + 1;
        while (std::gcd(perm_a_, static_cast<std::uint64_t>(num_nodes_)) !=
               1)
          perm_a_ = perm_a_ % (num_nodes_ - 1) + 1;
        perm_b_ = rng.uniform_int(node_bound_);
      }
      break;
    }
    case ScanStrategy::kHitlist: {
      std::vector<NodeId> all(num_nodes_);
      for (std::size_t i = 0; i < num_nodes_; ++i)
        all[i] = static_cast<NodeId>(i);
      rng.shuffle(all);
      const std::size_t size =
          std::min<std::size_t>(config_.hitlist_size, num_nodes_);
      hitlist_.assign(all.begin(), all.begin() + size);
      if (size == 0) break;
      hitlist_pos_.resize(num_nodes_);
      for (std::size_t v = 0; v < num_nodes_; ++v)
        hitlist_pos_[v] = static_cast<std::uint32_t>(v % size);
      hitlist_remaining_.assign(num_nodes_, static_cast<std::uint32_t>(size));
      break;
    }
    case ScanStrategy::kRandom:
    case ScanStrategy::kLocalPreferential:
      break;
  }
}

NodeId TargetSelector::pick_random(NodeId scanner, Rng& rng) const {
  for (;;) {
    const NodeId t = static_cast<NodeId>(rng.uniform_int(node_bound_));
    if (t != scanner) return t;
  }
}

NodeId TargetSelector::pick_local(NodeId scanner, Rng& rng) const {
  if (has_subnets() && rng.bernoulli(config_.local_bias)) {
    const auto& members = (*subnet_members_)[(*subnet_of_)[scanner]];
    if (members.size() > 1) {
      for (;;) {
        const NodeId t = members[rng.uniform_int(members.size())];
        if (t != scanner) return t;
      }
    }
  }
  return pick_random(scanner, rng);
}

NodeId TargetSelector::advance_cursor(NodeId scanner) {
  std::uint32_t& cur = cursor_[scanner];
  for (;;) {
    const std::uint64_t position = cur;
    cur = static_cast<std::uint32_t>((cur + 1) % num_nodes_);
    const NodeId target =
        config_.strategy == ScanStrategy::kPermutation
            ? static_cast<NodeId>((perm_a_ * position + perm_b_) %
                                  num_nodes_)
            : static_cast<NodeId>(position);
    if (target != scanner) return target;
  }
}

NodeId TargetSelector::pick(NodeId scanner, Rng& rng) {
  if (scanner >= num_nodes_)
    throw std::out_of_range("TargetSelector::pick: scanner out of range");
  switch (config_.strategy) {
    case ScanStrategy::kRandom:
      return pick_random(scanner, rng);
    case ScanStrategy::kLocalPreferential:
      return pick_local(scanner, rng);
    case ScanStrategy::kSequential:
    case ScanStrategy::kPermutation:
      return advance_cursor(scanner);
    case ScanStrategy::kHitlist: {
      if (hitlist_.empty()) return pick_random(scanner, rng);
      std::uint32_t& pos = hitlist_pos_[scanner];
      std::uint32_t& remaining = hitlist_remaining_[scanner];
      while (remaining > 0) {
        const NodeId t = hitlist_[pos];
        pos = static_cast<std::uint32_t>((pos + 1) % hitlist_.size());
        --remaining;
        if (t != scanner) return t;
      }
      return pick_random(scanner, rng);
    }
  }
  throw std::logic_error("TargetSelector::pick: bad strategy");
}

}  // namespace dq::worm
