#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builders.hpp"
#include "stats/rng.hpp"

namespace dq::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, AddEdgeBasics) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Graph, RejectsSelfLoopDuplicateAndRange) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 2), std::invalid_argument);
  g.add_edge(0, 1);
  EXPECT_THROW(g.add_edge(1, 0), std::invalid_argument);
}

TEST(Graph, NeighborsSpan) {
  Graph g(4);
  g.add_edge(1, 0);
  g.add_edge(1, 2);
  g.add_edge(1, 3);
  EXPECT_EQ(g.neighbors(1).size(), 3u);
  EXPECT_EQ(g.neighbors(0).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0], 1u);
}

TEST(Graph, AddNode) {
  Graph g(1);
  const NodeId n = g.add_node();
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(g.num_nodes(), 2u);
  g.add_edge(0, n);
  EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Graph, Connectivity) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, NodesByDegreeDescWithDeterministicTies) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.add_edge(1, 2);
  const auto order = g.nodes_by_degree_desc();
  EXPECT_EQ(order[0], 0u);              // degree 3
  EXPECT_EQ(order[1], 1u);              // degree 2, lowest id first
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 3u);
}

/// The degree order as a comparison sort, as written before the
/// counting sort: the order nodes_by_degree_desc is pinned to.
std::vector<NodeId> reference_degree_order(const Graph& g) {
  std::vector<NodeId> order(g.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&g](NodeId a, NodeId b) {
    if (g.degree(a) != g.degree(b)) return g.degree(a) > g.degree(b);
    return a < b;
  });
  return order;
}

TEST(Graph, NodesByDegreeDescMatchesComparisonSort) {
  Rng rng(9);
  std::vector<Graph> graphs;
  graphs.push_back(make_barabasi_albert(5000, 2, rng));
  graphs.push_back(make_star(300));
  graphs.push_back(make_ring(100));      // every degree ties
  graphs.push_back(make_complete(12));   // every degree ties
  Graph sparse(400);                     // few distinct degrees, isolates
  for (NodeId v = 0; v + 3 < 400; v += 4) {
    sparse.add_edge(v, v + 1);
    sparse.add_edge(v + 2, v + 3);
  }
  sparse.add_edge(0, 2);
  graphs.push_back(std::move(sparse));
  graphs.push_back(Graph(7));  // no edges
  graphs.push_back(Graph());   // no nodes
  for (const Graph& g : graphs)
    EXPECT_EQ(g.nodes_by_degree_desc(), reference_degree_order(g))
        << g.num_nodes() << " nodes, " << g.num_edges() << " edges";
}

/// add_edge over `edges` in order, stopping at the first throw; returns
/// its message (empty when every edge went in).
std::string add_edges(Graph& g, const std::vector<Edge>& edges) {
  try {
    for (const auto& [a, b] : edges) g.add_edge(a, b);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

void expect_same_rows(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    const auto ra = a.neighbors(v), rb = b.neighbors(v);
    ASSERT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()))
        << "row " << v;
  }
}

TEST(Graph, EdgeListConstructorMatchesAddEdge) {
  Rng rng(31);
  for (const std::size_t n : {2u, 10u, 300u}) {
    // Every pair of a random subset, in shuffled order and orientation.
    std::vector<Edge> edges;
    for (NodeId a = 0; a < n; ++a)
      for (NodeId b = a + 1; b < n; ++b)
        if (rng.bernoulli(0.2))
          edges.push_back(rng.bernoulli(0.5) ? Edge{a, b} : Edge{b, a});
    rng.shuffle(edges);
    Graph by_edge(n);
    ASSERT_EQ(add_edges(by_edge, edges), "");
    expect_same_rows(Graph(n, edges), by_edge);
  }
  expect_same_rows(Graph(4, std::vector<Edge>{}), Graph(4));
}

TEST(Graph, EdgeListConstructorRejectsLikeAddEdge) {
  const std::vector<std::vector<Edge>> bad = {
      {{0, 1}, {2, 2}},          // self-loop
      {{0, 1}, {1, 5}},          // out of range
      {{0, 1}, {1, 2}, {1, 0}},  // duplicate, reversed
      {{0, 1}, {0, 1}},          // duplicate
      {{7, 7}},                  // self-loop beats out of range
      {{0, 9}, {1, 1}},          // the first bad edge wins
      {{0, 1}, {1, 0}, {3, 3}},
  };
  for (const auto& edges : bad) {
    Graph by_edge(4);
    const std::string want = add_edges(by_edge, edges);
    ASSERT_FALSE(want.empty());
    try {
      const Graph g(4, edges);
      ADD_FAILURE() << "accepted an edge add_edge rejects: " << want;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), want);
    }
  }
}

}  // namespace
}  // namespace dq::graph
