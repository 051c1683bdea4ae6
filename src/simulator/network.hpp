// Network: the static substrate a worm runs over, in two parts.
//
//   * RoutedTopology — the graph, its link numbering, its routes and
//     its subnet structure (ids, members, gateways). This is where
//     build time and memory go, and it depends only on the graph, so
//     it is immutable and shared through std::shared_ptr<const ...>:
//     every network over the same graph routes through the same bytes.
//   * Network — a routed topology plus one deployment's node roles
//     (backbone / edge router / host). Roles are cheap to assign, so
//     two networks that differ only in their role cutoffs share their
//     topology and differ by one RoleAssignment.
//
// Routing has two backends chosen by memory budget:
//   * all-pairs — graph::RoutingTable's first link of every route
//     (4 bytes per ordered pair), its link loads and its link
//     numbering; exact shortest paths.
//   * shortest-path tree — above the all-pairs budget the topology
//     keeps only a BFS tree rooted at the highest-degree node (parent
//     pointers, Euler-tour intervals, a child index), so a million-node
//     graph routes in O(N) memory: up to the lowest common ancestor,
//     then down. Tree paths are exact on trees and stars and a
//     hub-biased approximation elsewhere — the trade million-node runs
//     accept for bounded memory.
// Both number links with graph::LinkIndex, so link ids, and the order
// the simulator drains link queues in, do not depend on the backend.
//
// TopologySpec names the paper's topologies as data; build_topology
// turns its graph fields into a RoutedTopology, and build_network adds
// the spec's roles.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "graph/builders.hpp"
#include "graph/graph.hpp"
#include "graph/roles.hpp"
#include "graph/routing.hpp"

namespace dq::sim {

using graph::NodeId;

/// Memory budget steering which routing backend a topology builds. The
/// default keeps every historical configuration (≤ 11,585 nodes) on
/// the exact all-pairs backend while letting million-node graphs
/// construct in bounded memory. Tests shrink it to force tree routing
/// on small graphs.
struct NetworkOptions {
  /// Budget for the all-pairs table (4 bytes per ordered node pair: the
  /// first link of its route). Above it, tree routing.
  std::size_t routing_table_bytes = std::size_t{1} << 29;
};

/// Immutable routed graph, shared by every network (and every run)
/// over it.
class RoutedTopology {
 public:
  /// Routes an arbitrary connected graph.
  explicit RoutedTopology(graph::Graph g, NetworkOptions options = {});

  /// Routes a subnet topology, keeping its subnet ids, members and
  /// gateways.
  explicit RoutedTopology(graph::SubnetTopology topo,
                          NetworkOptions options = {});

  const graph::Graph& graph() const noexcept { return graph_; }

  /// True when the all-pairs table was built (node count within
  /// NetworkOptions::routing_table_bytes); false on tree-routed graphs.
  bool has_routing_table() const noexcept { return routing_ != nullptr; }

  /// The all-pairs table. Throws std::logic_error on tree-routed
  /// topologies — callers needing exact path analytics (path_coverage,
  /// node_transit_loads) must check has_routing_table() first.
  const graph::RoutingTable& routing() const;

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
  /// topologies it is an Euler-interval test plus a child binary
  /// search. Precondition: at != dest, both in range.
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

  /// Borrowable views of the subnet structure, owned by the topology
  /// for its lifetime (both empty when the topology has no subnets).
  /// worm::TargetSelector borrows these instead of copying O(N) state
  /// per simulation construction.
  const std::vector<std::size_t>& subnet_ids() const noexcept {
    return subnet_of_;
  }
  const std::vector<std::vector<NodeId>>& subnet_lists() const noexcept {
    return subnet_members_;
  }

  /// Gateway node of each subnet (empty when no subnets).
  const std::vector<NodeId>& gateways() const noexcept { return gateways_; }

  bool has_subnets() const noexcept { return !subnet_members_.empty(); }
  std::size_t num_subnets() const noexcept { return subnet_members_.size(); }

 private:
  /// The link numbering: the all-pairs table's, or the tree backend's
  /// own (the same numbering, built from the same graph).
  const graph::LinkIndex& links() const noexcept {
    return routing_ != nullptr ? routing_->links() : tree_links_;
  }

  void build_routing(const NetworkOptions& options);
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
  /// The all-pairs table; null on tree-routed topologies. Not a
  /// std::optional: GCC 12 at -O2 drops prefetch_route's prefetch when
  /// a flag, not a pointer test, guards it.
  std::unique_ptr<graph::RoutingTable> routing_;
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
  std::vector<NodeId> gateways_;
};

/// A routed topology plus one deployment's node roles. Copies share
/// the topology.
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

  /// Puts roles on a shared routed topology. Throws
  /// std::invalid_argument when the topology is null or the roles do
  /// not cover its nodes.
  Network(std::shared_ptr<const RoutedTopology> topology,
          graph::RoleAssignment roles);

  /// The routed topology, shared with every network built over it.
  const RoutedTopology& topology() const noexcept { return *topology_; }

  const graph::RoleAssignment& roles() const noexcept { return roles_; }

  // The topology's accessors, for callers holding a Network (routes:
  // topology().hop_toward).
  const graph::Graph& graph() const noexcept { return topology_->graph(); }
  bool has_routing_table() const noexcept {
    return topology_->has_routing_table();
  }
  const graph::RoutingTable& routing() const { return topology_->routing(); }
  std::size_t num_nodes() const noexcept { return topology_->num_nodes(); }
  std::size_t num_links() const noexcept { return topology_->num_links(); }
  const graph::LinkKey& link(std::size_t index) const {
    return topology_->link(index);
  }
  std::uint64_t link_load(std::size_t index) const {
    return topology_->link_load(index);
  }
  std::uint64_t total_link_load() const noexcept {
    return topology_->total_link_load();
  }
  std::optional<std::size_t> subnet_of(NodeId n) const {
    return topology_->subnet_of(n);
  }
  const std::vector<NodeId>& subnet_members(std::size_t subnet) const {
    return topology_->subnet_members(subnet);
  }
  const std::vector<std::size_t>& subnet_ids() const noexcept {
    return topology_->subnet_ids();
  }
  const std::vector<std::vector<NodeId>>& subnet_lists() const noexcept {
    return topology_->subnet_lists();
  }
  bool has_subnets() const noexcept { return topology_->has_subnets(); }
  std::size_t num_subnets() const noexcept { return topology_->num_subnets(); }

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
  std::shared_ptr<const RoutedTopology> topology_;
  graph::RoleAssignment roles_;
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

  /// The graph fields, the ones build_topology reads, as a comparable
  /// key: specs with equal keys build the same routed topology,
  /// whatever their role cutoffs.
  using GraphKey = std::tuple<Kind, std::size_t, std::size_t, std::size_t,
                              std::size_t, std::uint64_t>;
  GraphKey graph_key() const {
    return {kind, nodes, ba_links, num_subnets, hosts_per_subnet, build_seed};
  }
};

/// Builds the routed topology a spec's graph fields describe (see
/// TopologySpec::graph_key; the role cutoffs play no part). The graph
/// builders throw std::invalid_argument on nonsensical sizes.
std::shared_ptr<const RoutedTopology> build_topology(const TopologySpec& spec);

/// Builds the network a spec describes: build_topology(spec) plus the
/// spec's roles.
Network build_network(const TopologySpec& spec);

/// Puts a spec's roles (degree-rank cutoffs, or a subnet topology's
/// gateways) on `topology`, which must have been built from a spec
/// with the same graph_key. Equals build_network(spec) without the
/// build.
Network build_network(const TopologySpec& spec,
                      std::shared_ptr<const RoutedTopology> topology);

}  // namespace dq::sim
