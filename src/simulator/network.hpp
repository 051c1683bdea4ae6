// Network: the static substrate a worm runs over — topology, routing,
// node roles, optional subnet structure, and link numbering.
//
// Routing has two backends chosen by memory budget:
//   * all-pairs — graph::RoutingTable's first link of every route
//     (4 bytes per ordered pair), its link loads and its link
//     numbering; exact shortest paths, shared across every run of a
//     configuration.
//   * shortest-path tree — above the all-pairs budget the network keeps
//     only a BFS tree rooted at the highest-degree node (parent
//     pointers, Euler-tour intervals, a child index), so a million-node
//     graph routes in O(N) memory: up to the lowest common ancestor,
//     then down. Tree paths are exact on trees and stars and a
//     hub-biased approximation elsewhere — the trade million-node runs
//     accept for bounded memory.
// Both number links with graph::LinkIndex, so link ids, and the order
// the simulator drains link queues in, do not depend on the backend.
//
// TopologySpec names the paper's topologies as data; build_network is
// the one place that turns a spec into a Network.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "graph/roles.hpp"
#include "graph/routing.hpp"

namespace dq::sim {

using graph::NodeId;

/// Memory budget steering which routing backend a Network builds. The
/// default keeps every historical configuration (≤ 11,585 nodes) on
/// the exact all-pairs backend while letting million-node graphs
/// construct in bounded memory. Tests shrink it to force tree routing
/// on small graphs.
struct NetworkOptions {
  /// Budget for the all-pairs table (4 bytes per ordered node pair: the
  /// first link of its route). Above it, tree routing.
  std::size_t routing_table_bytes = std::size_t{1} << 29;
};

/// Immutable network substrate shared across simulation runs.
class Network {
 public:
  /// Wraps an arbitrary connected graph. Roles are assigned by degree
  /// rank per the paper (top backbone_fraction backbone, next
  /// edge_fraction edge routers).
  explicit Network(graph::Graph g, double backbone_fraction = 0.05,
                   double edge_fraction = 0.10, NetworkOptions options = {});

  /// Wraps a subnet topology: gateways become the edge routers, the
  /// backbone interconnect links are the backbone, members keep their
  /// subnet ids for local-preferential scanning.
  explicit Network(graph::SubnetTopology topo, NetworkOptions options = {});

  /// Wraps a graph with an explicit role assignment (e.g. the
  /// betweenness-based designation of assign_roles_by_transit).
  Network(graph::Graph g, graph::RoleAssignment roles,
          NetworkOptions options = {});

  const graph::Graph& graph() const noexcept { return graph_; }

  /// True when the all-pairs table was built (node count within
  /// NetworkOptions::routing_table_bytes); false on tree-routed nets.
  bool has_routing_table() const noexcept { return routing_ != nullptr; }

  /// The all-pairs table. Throws std::logic_error on tree-routed
  /// networks — callers needing exact path analytics (path_coverage,
  /// node_transit_loads) must check has_routing_table() first.
  const graph::RoutingTable& routing() const;

  const graph::RoleAssignment& roles() const noexcept { return roles_; }

  std::size_t num_nodes() const noexcept { return graph_.num_nodes(); }
  std::size_t num_links() const noexcept { return links().size(); }

  /// Link endpoints by link index.
  const graph::LinkKey& link(std::size_t index) const {
    return links().link(index);
  }

  /// One routed hop: the next node toward a destination and the link
  /// crossed to reach it.
  struct HopStep {
    NodeId next;
    std::uint32_t link;
  };

  /// Next hop and traversed link from `at` toward `dest` in a single
  /// lookup — the simulator's per-hop fast path. With the all-pairs
  /// table it is one read of the route's first link; on tree-routed
  /// networks it is an Euler-interval test plus a child binary search.
  /// Precondition: at != dest, both in range.
  HopStep hop_toward(NodeId at, NodeId dest) const noexcept {
    if (routing_ != nullptr) {
      const std::uint32_t l = routing_->first_link(at, dest);
      return {routing_->links().other_end(l, at), l};
    }
    return tree_hop(at, dest);
  }

  /// Cache hint for a later hop_toward(at, dest): starts loading the
  /// route's all-pairs entry (a no-op on tree routing).
  void prefetch_route(NodeId at, NodeId dest) const noexcept {
    if (routing_ != nullptr) routing_->prefetch_first_link(at, dest);
  }

  /// Routing load of a link: ordered path count crossing it (all-pairs
  /// backend) or the tree-edge pair count 2·s·(N−s) (tree backend,
  /// where s is the child-side subtree size; non-tree links carry 0).
  std::uint64_t link_load(std::size_t index) const {
    return (routing_ != nullptr ? routing_->link_loads() : tree_link_loads_)
        .at(index);
  }

  /// Sum of link_load over all links — the normalizer for the paper's
  /// routing-entry link-weight rule, available on both backends.
  std::uint64_t total_link_load() const noexcept {
    return routing_ != nullptr ? routing_->total_link_load()
                               : tree_total_link_load_;
  }

  /// Subnet id of a node, if the topology has subnets.
  std::optional<std::size_t> subnet_of(NodeId n) const;

  /// Members of a subnet (empty when no subnets).
  const std::vector<NodeId>& subnet_members(std::size_t subnet) const;

  /// Borrowable views of the subnet structure, owned by the Network
  /// for its lifetime (both empty when the topology has no subnets).
  /// worm::TargetSelector borrows these instead of copying O(N) state
  /// per simulation construction.
  const std::vector<std::size_t>& subnet_ids() const noexcept {
    return subnet_of_;
  }
  const std::vector<std::vector<NodeId>>& subnet_lists() const noexcept {
    return subnet_members_;
  }

  bool has_subnets() const noexcept { return !subnet_members_.empty(); }
  std::size_t num_subnets() const noexcept { return subnet_members_.size(); }

  /// True if the link is incident to a node of the given role.
  bool link_touches_role(std::size_t index, graph::NodeRole role) const;

  /// True if the link belongs to the backbone: it touches a backbone
  /// router, or — on gateway-interconnected subnet topologies, which
  /// have no separate backbone nodes — both endpoints are edge routers.
  bool link_is_backbone(std::size_t index) const;

  /// True if the link is subject to edge-router rate limiting (incident
  /// to an edge router).
  bool link_is_edge(std::size_t index) const {
    return link_touches_role(index, graph::NodeRole::kEdgeRouter);
  }

 private:
  /// The link numbering: the all-pairs table's, or the tree backend's
  /// own (the same numbering, built from the same graph).
  const graph::LinkIndex& links() const noexcept {
    return routing_ != nullptr ? routing_->links() : tree_links_;
  }

  void build_tree_routing();

  /// Tree-backend hop: descend when dest sits in at's subtree (Euler
  /// interval test + binary search over at's children, sorted by
  /// tour-entry time), otherwise climb to the parent.
  HopStep tree_hop(NodeId at, NodeId dest) const noexcept {
    const std::uint32_t d = tree_tin_[dest];
    if (d >= tree_tin_[at] && d < tree_tout_[at]) {
      std::size_t lo = tree_child_offset_[at];
      std::size_t hi = tree_child_offset_[at + 1];
      // Last child whose tour entry is <= dest's (children partition
      // the subtree interval, so that child contains dest).
      while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (tree_tin_[tree_children_[mid]] <= d)
          lo = mid;
        else
          hi = mid;
      }
      const NodeId c = tree_children_[lo];
      return {c, tree_parent_link_[c]};
    }
    return {tree_parent_[at], tree_parent_link_[at]};
  }

  graph::Graph graph_;
  /// The all-pairs table; null on tree-routed networks.
  std::unique_ptr<graph::RoutingTable> routing_;
  graph::RoleAssignment roles_;
  /// Tree-routing state (built only when the all-pairs table is over
  /// budget, which otherwise owns the link numbering and loads).
  /// parent of the root is the root itself; tout = tin + subtree size,
  /// so [tin, tout) is the node's Euler interval.
  graph::LinkIndex tree_links_;
  std::vector<std::uint64_t> tree_link_loads_;
  std::uint64_t tree_total_link_load_ = 0;
  std::vector<NodeId> tree_parent_;
  std::vector<std::uint32_t> tree_parent_link_;
  std::vector<std::uint32_t> tree_tin_;
  std::vector<std::uint32_t> tree_tout_;
  std::vector<std::size_t> tree_child_offset_;
  std::vector<NodeId> tree_children_;
  std::vector<std::size_t> subnet_of_;  // empty when no subnets
  std::vector<std::vector<NodeId>> subnet_members_;
};

/// Reconstructible description of the paper's topology families: a
/// star, a Barabási–Albert power-law graph, or subnets behind gateways.
/// A spec is plain data, so the network it names can be rebuilt
/// anywhere (the campaign hashes specs into its cache keys) and is
/// deterministic in build_seed.
struct TopologySpec {
  enum class Kind : std::uint8_t { kStar, kPowerLaw, kSubnets };
  Kind kind = Kind::kPowerLaw;
  /// Node count (kStar / kPowerLaw).
  std::size_t nodes = 1000;
  /// Preferential-attachment links per node (kPowerLaw).
  std::size_t ba_links = 2;
  /// Subnet layout (kSubnets).
  std::size_t num_subnets = 25;
  std::size_t hosts_per_subnet = 40;
  /// Degree-rank role cutoffs (kStar / kPowerLaw; see Network).
  double backbone_fraction = 0.05;
  double edge_fraction = 0.10;
  /// Seed for randomized builders (kPowerLaw / kSubnets).
  std::uint64_t build_seed = 42;
};

/// Builds the network a spec describes. The graph builders throw
/// std::invalid_argument on nonsensical sizes.
Network build_network(const TopologySpec& spec);

}  // namespace dq::sim
