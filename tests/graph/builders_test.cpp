#include "graph/builders.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace dq::graph {
namespace {

TEST(Builders, Star) {
  const Graph g = make_star(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 4u);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(g.degree(leaf), 1u);
  EXPECT_THROW(make_star(1), std::invalid_argument);
}

TEST(Builders, Complete) {
  const Graph g = make_complete(5);
  EXPECT_EQ(g.num_edges(), 10u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 4u);
}

TEST(Builders, Ring) {
  const Graph g = make_ring(6);
  EXPECT_EQ(g.num_edges(), 6u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_THROW(make_ring(2), std::invalid_argument);
}

TEST(Builders, ErdosRenyiEdgeCount) {
  Rng rng(1);
  const Graph g = make_erdos_renyi(100, 0.1, rng);
  // Expected edges: C(100,2) * 0.1 = 495.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 495.0, 100.0);
  EXPECT_THROW(make_erdos_renyi(10, 1.5, rng), std::invalid_argument);
}

TEST(Builders, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(make_erdos_renyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(make_erdos_renyi(10, 1.0, rng).num_edges(), 45u);
}

TEST(Builders, BarabasiAlbertStructure) {
  Rng rng(3);
  const Graph g = make_barabasi_albert(500, 2, rng);
  EXPECT_EQ(g.num_nodes(), 500u);
  // Seed clique edges + m per added node.
  EXPECT_EQ(g.num_edges(), 3u + (500u - 3u) * 2u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_THROW(make_barabasi_albert(2, 2, rng), std::invalid_argument);
  EXPECT_THROW(make_barabasi_albert(10, 0, rng), std::invalid_argument);
}

/// The BA builder as written before it drew its edge list first: the
/// graph and stream make_barabasi_albert is pinned to.
Graph reference_barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  Graph g(n);
  for (NodeId a = 0; a < m + 1; ++a)
    for (NodeId b = a + 1; b < m + 1; ++b) g.add_edge(a, b);
  std::vector<NodeId> urn;
  for (NodeId a = 0; a < m + 1; ++a)
    for (std::size_t k = 0; k < g.degree(a); ++k) urn.push_back(a);
  std::vector<NodeId> chosen;
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    chosen.clear();
    while (chosen.size() < m) {
      const NodeId candidate = urn[rng.uniform_int(urn.size())];
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end())
        chosen.push_back(candidate);
    }
    for (NodeId target : chosen) {
      g.add_edge(v, target);
      urn.push_back(v);
      urn.push_back(target);
    }
  }
  return g;
}

TEST(Builders, BarabasiAlbertMatchesAddEdgeBuilder) {
  for (const std::size_t m : {1u, 2u, 3u}) {
    Rng rng(40 + m), ref_rng(40 + m);
    const Graph g = make_barabasi_albert(5000, m, rng);
    const Graph want = reference_barabasi_albert(5000, m, ref_rng);
    ASSERT_EQ(g.num_edges(), want.num_edges());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto row = g.neighbors(v), ref = want.neighbors(v);
      ASSERT_TRUE(std::equal(row.begin(), row.end(), ref.begin(), ref.end()))
          << "m " << m << " row " << v;
    }
    // Both consumed the same draws.
    EXPECT_EQ(rng.next_u64(), ref_rng.next_u64()) << "m " << m;
  }
}

TEST(Builders, BarabasiAlbertHeavyTail) {
  Rng rng(4);
  const Graph g = make_barabasi_albert(1000, 2, rng);
  // The max degree of a BA graph far exceeds the mean degree (4).
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    max_degree = std::max(max_degree, g.degree(v));
  EXPECT_GT(max_degree, 30u);
  // Estimated power-law exponent lands in a plausible band for BA
  // (theoretical 3, finite-size CCDF fits run low).
  const double gamma = estimate_powerlaw_exponent(g);
  EXPECT_GT(gamma, 1.5);
  EXPECT_LT(gamma, 4.0);
}

TEST(Builders, Waxman) {
  Rng rng(5);
  const Graph g = make_waxman(100, 0.8, 0.3, rng);
  EXPECT_EQ(g.num_nodes(), 100u);
  EXPECT_GT(g.num_edges(), 0u);
  EXPECT_THROW(make_waxman(10, 0.0, 0.3, rng), std::invalid_argument);
  EXPECT_THROW(make_waxman(10, 0.5, 0.0, rng), std::invalid_argument);
}

TEST(Builders, EnsureConnected) {
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.add_edge(4, 5);
  ensure_connected(g);
  EXPECT_TRUE(g.is_connected());
  // Exactly the two missing bridges were added.
  EXPECT_EQ(g.num_edges(), 5u);
}

TEST(Builders, SubnetTopologyStructure) {
  Rng rng(6);
  const SubnetTopology topo = make_subnet_topology(4, 5, rng);
  EXPECT_EQ(topo.num_subnets(), 4u);
  EXPECT_EQ(topo.graph.num_nodes(), 4u * 6u);
  EXPECT_TRUE(topo.graph.is_connected());
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(topo.members[s].size(), 6u);
    EXPECT_EQ(topo.members[s][0], topo.gateways[s]);
    for (NodeId m : topo.members[s]) EXPECT_EQ(topo.subnet_of[m], s);
    // Switched LAN: members are pairwise connected.
    for (NodeId a : topo.members[s])
      for (NodeId b : topo.members[s])
        if (a != b) {
          EXPECT_TRUE(topo.graph.has_edge(a, b));
        }
  }
}

TEST(Builders, SubnetTopologyIntraPathsAvoidGateway) {
  Rng rng(7);
  const SubnetTopology topo = make_subnet_topology(3, 4, rng);
  // Two non-gateway members of the same subnet are directly linked.
  const NodeId a = topo.members[1][1];
  const NodeId b = topo.members[1][2];
  EXPECT_TRUE(topo.graph.has_edge(a, b));
}

TEST(Builders, SubnetTopologyTwoSubnets) {
  Rng rng(8);
  const SubnetTopology topo = make_subnet_topology(2, 3, rng);
  EXPECT_TRUE(topo.graph.has_edge(topo.gateways[0], topo.gateways[1]));
}

TEST(Builders, SubnetTopologyErrors) {
  Rng rng(9);
  EXPECT_THROW(make_subnet_topology(0, 5, rng), std::invalid_argument);
  EXPECT_THROW(make_subnet_topology(5, 0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dq::graph
