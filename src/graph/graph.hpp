// Undirected graph container used for every topology in the paper:
// the 200-node star of Section 4, the 1000-node BRITE-like power-law
// graph of Section 5.4, and the subnetted enterprise topologies.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace dq::graph {

using NodeId = std::uint32_t;
/// An undirected edge {first, second}.
using Edge = std::pair<NodeId, NodeId>;

/// Simple undirected graph with adjacency lists. Nodes are dense ids
/// [0, num_nodes). Parallel edges and self-loops are rejected.
class Graph {
 public:
  Graph() = default;
  explicit Graph(std::size_t num_nodes) : adjacency_(num_nodes) {}
  /// The graph that add_edge over `edges`, in order, builds from
  /// `num_nodes` isolated nodes: the same rows in the same order, and
  /// the same std::invalid_argument at the first bad edge. Each row is
  /// sized to its final degree first, so none regrows.
  Graph(std::size_t num_nodes, std::span<const Edge> edges);

  std::size_t num_nodes() const noexcept { return adjacency_.size(); }
  std::size_t num_edges() const noexcept { return num_edges_; }

  /// Adds an undirected edge {a, b}. Throws std::invalid_argument on a
  /// self-loop, out-of-range endpoint, or duplicate edge.
  void add_edge(NodeId a, NodeId b);

  /// True if the edge {a, b} exists. O(min degree).
  bool has_edge(NodeId a, NodeId b) const;

  std::span<const NodeId> neighbors(NodeId n) const {
    return adjacency_.at(n);
  }

  std::size_t degree(NodeId n) const { return adjacency_.at(n).size(); }

  /// Appends a fresh node, returning its id.
  NodeId add_node();

  /// True if every node is reachable from node 0 (empty graphs count as
  /// connected).
  bool is_connected() const;

  /// Node ids sorted by descending degree (ties broken by id for
  /// determinism) — used for the paper's "top 5% of nodes with the most
  /// connections are backbone routers" designation. A counting sort:
  /// O(num_nodes + max degree).
  std::vector<NodeId> nodes_by_degree_desc() const;

 private:
  std::vector<std::vector<NodeId>> adjacency_;
  std::size_t num_edges_ = 0;
};

}  // namespace dq::graph
