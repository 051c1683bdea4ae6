#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace dq::graph {

Graph::Graph(std::size_t num_nodes, std::span<const Edge> edges)
    : adjacency_(num_nodes) {
  // A bad edge only skews the reservation; add_edge rejects it below.
  std::vector<std::uint32_t> degree(num_nodes, 0);
  for (const auto& [a, b] : edges)
    if (a != b && a < num_nodes && b < num_nodes) {
      ++degree[a];
      ++degree[b];
    }
  for (std::size_t v = 0; v < num_nodes; ++v)
    adjacency_[v].reserve(degree[v]);
  for (const auto& [a, b] : edges) add_edge(a, b);
}

void Graph::add_edge(NodeId a, NodeId b) {
  if (a == b) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (a >= num_nodes() || b >= num_nodes())
    throw std::invalid_argument("Graph::add_edge: node out of range");
  if (has_edge(a, b))
    throw std::invalid_argument("Graph::add_edge: duplicate edge");
  adjacency_[a].push_back(b);
  adjacency_[b].push_back(a);
  ++num_edges_;
}

bool Graph::has_edge(NodeId a, NodeId b) const {
  if (a >= num_nodes() || b >= num_nodes()) return false;
  const auto& small =
      adjacency_[a].size() <= adjacency_[b].size() ? adjacency_[a]
                                                   : adjacency_[b];
  const NodeId target = adjacency_[a].size() <= adjacency_[b].size() ? b : a;
  return std::find(small.begin(), small.end(), target) != small.end();
}

NodeId Graph::add_node() {
  adjacency_.emplace_back();
  return static_cast<NodeId>(adjacency_.size() - 1);
}

bool Graph::is_connected() const {
  if (num_nodes() == 0) return true;
  std::vector<char> seen(num_nodes(), 0);
  std::vector<NodeId> stack = {0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (NodeId m : adjacency_[n]) {
      if (!seen[m]) {
        seen[m] = 1;
        ++visited;
        stack.push_back(m);
      }
    }
  }
  return visited == num_nodes();
}

std::vector<NodeId> Graph::nodes_by_degree_desc() const {
  // next[d]: the first free slot of degree d's bucket. Buckets run from
  // the highest degree down, and ids fill each in ascending order.
  std::size_t max_degree = 0;
  for (const auto& row : adjacency_)
    max_degree = std::max(max_degree, row.size());
  std::vector<std::size_t> next(max_degree + 1, 0);
  for (const auto& row : adjacency_) ++next[row.size()];
  std::size_t slot = 0;
  for (std::size_t d = max_degree + 1; d-- > 0;) {
    const std::size_t count = next[d];
    next[d] = slot;
    slot += count;
  }
  std::vector<NodeId> order(num_nodes());
  for (std::size_t v = 0; v < num_nodes(); ++v)
    order[next[adjacency_[v].size()]++] = static_cast<NodeId>(v);
  return order;
}

}  // namespace dq::graph
