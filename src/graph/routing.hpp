// Shortest-path routing over a topology.
//
// The paper's simulator routes infection packets over shortest paths
// (Section 5.4) and weights each rate-limited link "proportional to the
// number of routing table entries the link occupies". LinkIndex numbers
// a graph's links once; RoutingTable precomputes the first link of the
// BFS route between every pair of nodes and reports, per link in that
// numbering, how many source–destination shortest paths traverse it
// (the routing entry count the paper multiplies into the link rate).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace dq::graph {

/// Endpoints of an undirected link, smaller id first.
struct LinkKey {
  NodeId a;
  NodeId b;
  friend bool operator==(const LinkKey&, const LinkKey&) = default;
};

/// The one numbering of a graph's undirected links, with the adjacency
/// every routing backend scans.
///
/// Links are numbered by smaller endpoint, then in that endpoint's
/// adjacency-list order (the order edges were added, not sorted by the
/// other end). The numbering is fixed: the packet simulator drains its
/// per-link queues in link order, so renumbering would change
/// trajectories and every pinned figure.
///
/// The adjacency is a CSR whose rows are sorted by neighbour id, with
/// each entry's link number in a parallel array, so a BFS scans 4-byte
/// neighbour ids and reads a link number only where it uses one.
class LinkIndex {
 public:
  LinkIndex() = default;
  explicit LinkIndex(const Graph& g);

  /// Number of links.
  std::size_t size() const noexcept { return ends_.size(); }

  /// Endpoints of link `l`. Throws std::out_of_range past size().
  const LinkKey& link(std::size_t l) const { return ends_.at(l); }

  /// The end of link `l` that is not `u`. Precondition: `u` is an end.
  NodeId other_end(std::size_t l, NodeId u) const noexcept {
    const LinkKey& k = ends_[l];
    return k.a == u ? k.b : k.a;
  }

  /// Number of the link joining `a` and `b`, in either order; size()
  /// when they are equal, not adjacent or not nodes.
  std::size_t find(NodeId a, NodeId b) const noexcept;

  /// Row offsets: node u's adjacency entries are
  /// [offsets()[u], offsets()[u + 1]).
  const std::vector<std::size_t>& offsets() const noexcept { return row_; }
  /// Neighbour of each adjacency entry, ascending within a row.
  const std::vector<NodeId>& neighbors() const noexcept { return nbr_; }
  /// Link number of each adjacency entry, parallel to neighbors().
  const std::vector<std::uint32_t>& entry_links() const noexcept {
    return nbr_link_;
  }

 private:
  std::vector<LinkKey> ends_;
  std::vector<std::size_t> row_;
  std::vector<NodeId> nbr_;
  std::vector<std::uint32_t> nbr_link_;
};

/// All-pairs shortest-path routes, stored as the first link of every
/// route, with exact link and transit loads.
///
/// first_link(from, to) is the link `from` crosses first toward `to`;
/// the next hop is that link's other end. Storing the link rather than
/// the next node makes it the only V² table (4 bytes per ordered pair)
/// and lets the simulator route a hop with one read of it. Link
/// numbers and link_loads() follow links(), the numbering the
/// simulator uses.
///
/// Tie-break: a node's next hop toward `dst` is its lowest-id neighbor
/// one hop closer to `dst` — the same first hop an ascending-id BFS
/// from the source would pick.
///
/// Construction is one O(V + E) pass per destination over the sorted
/// adjacency, O(V · (V + E)) in total: a BFS from `dst` gives every
/// node's distance to it, the next hops toward `dst` form an in-tree
/// rooted there, and folding subtree sizes up that tree in reverse BFS
/// order gives each link's path count and each node's transit count
/// without walking a single path. There is no distance table.
class RoutingTable {
 public:
  /// Builds the table. Throws std::invalid_argument if the graph is
  /// empty or disconnected (every experiment in the paper uses
  /// connected graphs).
  explicit RoutingTable(const Graph& g);

  /// The link numbering of first_link and link_loads.
  const LinkIndex& links() const noexcept { return links_; }

  /// The link `from` crosses first on its route to `to`. Unchecked:
  /// from and to must be in range and from != to.
  std::uint32_t first_link(NodeId from, NodeId to) const noexcept {
    return first_[static_cast<std::size_t>(from) * n_ + to];
  }

  /// Cache hint: starts loading first_link(from, to)'s table entry.
  void prefetch_first_link(NodeId from, NodeId to) const noexcept {
    __builtin_prefetch(&first_[static_cast<std::size_t>(from) * n_ + to]);
  }

  /// Per link, the number of ordered (src,dst) pairs whose route
  /// crosses it — the paper's "routing table entries the link
  /// occupies".
  const std::vector<std::uint64_t>& link_loads() const noexcept {
    return link_load_;
  }

  /// Sum of link_loads (for normalizing weights).
  std::uint64_t total_link_load() const noexcept { return total_load_; }

  /// Fraction of ordered (src,dst) pairs, src != dst, both in `hosts`,
  /// whose routed path passes through at least one node in `via`
  /// (excluding the endpoints themselves). This is the α of Section 5.3:
  /// the portion of IP-to-IP paths covered by backbone rate limiting.
  /// Throws std::out_of_range if a host is not a node.
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
  LinkIndex links_;
  std::size_t n_ = 0;
  std::vector<std::uint32_t> first_;      // n*n first links (from != to)
  std::vector<std::uint64_t> link_load_;  // by link number
  std::vector<std::uint64_t> transit_;    // per-node transit pair counts
  std::uint64_t total_load_ = 0;
};

}  // namespace dq::graph
