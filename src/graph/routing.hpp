// Shortest-path routing over a topology.
//
// The paper's simulator routes infection packets over shortest paths
// (Section 5.4) and weights each rate-limited link "proportional to the
// number of routing table entries the link occupies". RoutingTable
// precomputes BFS next-hops between every pair of nodes and reports,
// per link, how many source–destination shortest paths traverse it (the
// routing entry count the paper multiplies into the link rate).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"

namespace dq::graph {

/// Canonical undirected link key (ordered endpoints).
struct LinkKey {
  NodeId a;
  NodeId b;
  friend bool operator==(const LinkKey&, const LinkKey&) = default;
};

inline LinkKey make_link_key(NodeId x, NodeId y) {
  return x < y ? LinkKey{x, y} : LinkKey{y, x};
}

/// All-pairs shortest-path next-hop table with exact link and transit
/// loads.
///
/// Tie-break: a node's next hop toward `dst` is its lowest-id neighbor
/// one hop closer to `dst` — the same first hop an ascending-id BFS
/// from the source would pick.
///
/// Construction is one O(V + E) pass per destination over a sorted CSR
/// adjacency, O(V · (V + E)) in total: a BFS from `dst` gives every
/// node's distance to it, the next hops toward `dst` form an in-tree
/// rooted there, and folding subtree sizes up that tree in reverse BFS
/// order gives each link's path count and each node's transit count
/// without walking a single path. Only the V² next-hop table (4 bytes
/// per ordered pair) is kept; there is no distance table.
class RoutingTable {
 public:
  /// Builds the table. Throws std::invalid_argument if the graph is
  /// empty or disconnected (every experiment in the paper uses
  /// connected graphs).
  explicit RoutingTable(const Graph& g);

  std::size_t num_nodes() const noexcept { return n_; }

  /// The neighbor of `from` on the shortest path toward `to`;
  /// nullopt when from == to.
  std::optional<NodeId> next_hop(NodeId from, NodeId to) const;

  /// Unchecked next hop for hot loops: no bounds check, no optional.
  /// Precondition: from and to are in range and from != to.
  NodeId next_hop_raw(NodeId from, NodeId to) const noexcept {
    return next_[index(from, to)];
  }

  /// Full path from `from` to `to`, inclusive of both endpoints. Throws
  /// std::out_of_range if either endpoint is not a node.
  std::vector<NodeId> path(NodeId from, NodeId to) const;

  /// Number of ordered (src,dst) pairs whose routed path crosses the
  /// given undirected link — the paper's "routing table entries the
  /// link occupies".
  std::uint64_t link_load(const LinkKey& link) const;

  /// Sum of link_load over all links (for normalizing weights).
  std::uint64_t total_link_load() const noexcept { return total_load_; }

  /// Fraction of ordered (src,dst) pairs, src != dst, both in `hosts`,
  /// whose routed path passes through at least one node in `via`
  /// (excluding the endpoints themselves). This is the α of Section 5.3:
  /// the portion of IP-to-IP paths covered by backbone rate limiting.
  double path_coverage(const std::vector<NodeId>& hosts,
                       const std::vector<char>& via) const;

  /// For each node, the number of ordered (src,dst) pairs whose routed
  /// path transits it (endpoints excluded) — unnormalized routing
  /// betweenness. The natural answer to "which nodes should carry the
  /// backbone filters?", as opposed to the paper's degree-rank rule.
  const std::vector<std::uint64_t>& node_transit_loads() const noexcept {
    return transit_;
  }

 private:
  std::size_t index(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * n_ + to;
  }
  /// Position of a normalized link key in the sorted links_ array;
  /// links_.size() when absent.
  std::size_t link_ordinal(const LinkKey& key) const noexcept;

  std::size_t n_ = 0;
  std::vector<NodeId> next_;             // n*n next hops (self when from==to)
  std::vector<LinkKey> links_;           // sorted unique links
  std::vector<std::size_t> link_row_;    // links_ offsets by smaller endpoint
  std::vector<std::uint64_t> link_load_; // parallel to links_
  std::vector<std::uint64_t> transit_;   // per-node transit pair counts
  std::uint64_t total_load_ = 0;
};

}  // namespace dq::graph
