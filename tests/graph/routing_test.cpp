#include "graph/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "graph/builders.hpp"
#include "graph/roles.hpp"
#include "simulator/network.hpp"

namespace dq::graph {
namespace {

/// Path count per undirected link, keyed by (smaller, larger) end.
using LoadMap = std::map<std::pair<NodeId, NodeId>, std::uint64_t>;

std::uint64_t load_of(const LoadMap& loads, const LinkKey& link) {
  const auto it = loads.find({link.a, link.b});
  return it == loads.end() ? 0 : it->second;
}

LinkKey key_of(NodeId x, NodeId y) {
  return x < y ? LinkKey{x, y} : LinkKey{y, x};
}

/// The straightforward all-pairs build the table must agree with: a BFS
/// from every source scanning neighbors in ascending id order, and
/// link and transit counts from walking every routed path hop by hop.
struct ReferenceRouting {
  std::size_t n;
  std::vector<std::uint32_t> dist;  // n*n, indexed from*n+to
  std::vector<NodeId> next;         // n*n, self when from==to

  explicit ReferenceRouting(const Graph& g)
      : n(g.num_nodes()),
        dist(n * n, std::numeric_limits<std::uint32_t>::max()),
        next(n * n, 0) {
    std::vector<NodeId> sorted_neighbors;
    for (NodeId src = 0; src < n; ++src) {
      dist[at(src, src)] = 0;
      next[at(src, src)] = src;
      std::deque<NodeId> queue = {src};
      while (!queue.empty()) {
        const NodeId u = queue.front();
        queue.pop_front();
        sorted_neighbors.assign(g.neighbors(u).begin(), g.neighbors(u).end());
        std::sort(sorted_neighbors.begin(), sorted_neighbors.end());
        for (NodeId v : sorted_neighbors) {
          if (dist[at(src, v)] != std::numeric_limits<std::uint32_t>::max())
            continue;
          dist[at(src, v)] = dist[at(src, u)] + 1;
          next[at(src, v)] = (u == src) ? v : next[at(src, u)];
          queue.push_back(v);
        }
      }
    }
  }

  std::size_t at(NodeId from, NodeId to) const {
    return static_cast<std::size_t>(from) * n + to;
  }

  LoadMap link_loads() const {
    LoadMap loads;
    for (NodeId src = 0; src < n; ++src)
      for (NodeId dst = 0; dst < n; ++dst)
        for (NodeId cur = src; cur != dst;) {
          const NodeId nxt = next[at(cur, dst)];
          ++loads[std::minmax(cur, nxt)];
          cur = nxt;
        }
    return loads;
  }

  std::vector<std::uint64_t> transit_loads() const {
    std::vector<std::uint64_t> loads(n, 0);
    for (NodeId src = 0; src < n; ++src)
      for (NodeId dst = 0; dst < n; ++dst) {
        if (src == dst) continue;
        for (NodeId cur = next[at(src, dst)]; cur != dst;
             cur = next[at(cur, dst)])
          ++loads[cur];
      }
    return loads;
  }
};

/// The neighbor of `from` on its route to `to` (from != to).
NodeId next_hop(const RoutingTable& rt, NodeId from, NodeId to) {
  return rt.links().other_end(rt.first_link(from, to), from);
}

/// The routed path from `from` to `to`, both ends included; cut off
/// past n nodes, which only a routing loop reaches.
std::vector<NodeId> route(const RoutingTable& rt, NodeId from, NodeId to) {
  const std::size_t n = rt.node_transit_loads().size();
  std::vector<NodeId> path = {from};
  while (path.back() != to && path.size() <= n)
    path.push_back(next_hop(rt, path.back(), to));
  return path;
}

/// Hops on the routed path from `from` to `to`.
std::size_t hops(const RoutingTable& rt, NodeId from, NodeId to) {
  return route(rt, from, to).size() - 1;
}

/// Asserts the simulator's per-hop routing and link loads on `net`
/// equal the reference: every hop goes to the reference next hop over
/// the link joining the two, and every link carries its reference path
/// count.
void expect_network_matches(const sim::Network& net,
                            const ReferenceRouting& ref,
                            const LoadMap& loads) {
  std::size_t hop_mismatches = 0, link_mismatches = 0;
  for (NodeId at = 0; at < ref.n; ++at)
    for (NodeId dst = 0; dst < ref.n; ++dst) {
      if (at == dst) continue;
      const sim::RoutedTopology::HopStep hop =
          net.topology().hop_toward(at, dst);
      if (hop.next != ref.next[ref.at(at, dst)]) ++hop_mismatches;
      if (!(net.link(hop.link) == key_of(at, hop.next))) ++link_mismatches;
    }
  EXPECT_EQ(hop_mismatches, 0u);
  EXPECT_EQ(link_mismatches, 0u);
  for (std::size_t l = 0; l < net.num_links(); ++l)
    EXPECT_EQ(net.link_load(l), load_of(loads, net.link(l))) << "link " << l;
}

/// Asserts every query of the table, and of a sim::Network routing over
/// the same graph, equals the reference build on `g`. Trees are also
/// checked on the tree backend, which is exact there.
void expect_matches_reference(const Graph& g, const std::string& label) {
  SCOPED_TRACE(label);
  const RoutingTable rt(g);
  const ReferenceRouting ref(g);
  const std::size_t n = g.num_nodes();

  std::size_t hop_mismatches = 0, dist_mismatches = 0;
  for (NodeId from = 0; from < n; ++from)
    for (NodeId to = 0; to < n; ++to) {
      if (hops(rt, from, to) != ref.dist[ref.at(from, to)])
        ++dist_mismatches;
      if (from != to && next_hop(rt, from, to) != ref.next[ref.at(from, to)])
        ++hop_mismatches;
    }
  EXPECT_EQ(dist_mismatches, 0u);
  EXPECT_EQ(hop_mismatches, 0u);

  const LoadMap loads = ref.link_loads();
  ASSERT_EQ(rt.links().size(), g.num_edges());
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < rt.links().size(); ++l) {
    const std::uint64_t load = load_of(loads, rt.links().link(l));
    EXPECT_EQ(rt.link_loads()[l], load) << "link " << l;
    total += load;
  }
  EXPECT_EQ(rt.total_link_load(), total);

  EXPECT_EQ(rt.node_transit_loads(), ref.transit_loads());

  {
    SCOPED_TRACE("all-pairs Network");
    const sim::Network net(g);
    ASSERT_TRUE(net.has_routing_table());
    expect_network_matches(net, ref, loads);
  }
  if (g.num_edges() + 1 == n) {
    SCOPED_TRACE("tree-routed Network");
    sim::NetworkOptions tree_only;
    tree_only.routing_table_bytes = 0;
    const sim::Network net(g, 0.05, 0.10, tree_only);
    ASSERT_FALSE(net.has_routing_table());
    expect_network_matches(net, ref, loads);
  }
}

TEST(RoutingTableReference, DeterministicFamiliesAgree) {
  expect_matches_reference(make_star(2), "star 2");
  expect_matches_reference(make_star(9), "star 9");
  expect_matches_reference(make_ring(9), "odd ring 9");
  expect_matches_reference(make_ring(31), "odd ring 31");
  expect_matches_reference(make_ring(10), "even ring 10");
  expect_matches_reference(make_ring(32), "even ring 32");
  expect_matches_reference(make_complete(1), "complete 1");
  expect_matches_reference(make_complete(12), "complete 12");
}

TEST(RoutingTableReference, BarabasiAlbertAgrees) {
  for (std::size_t m : {1u, 2u, 3u})
    for (std::uint64_t seed : {3u, 11u}) {
      Rng rng(seed);
      expect_matches_reference(
          make_barabasi_albert(120, m, rng),
          "BA m=" + std::to_string(m) + " seed " + std::to_string(seed));
    }
}

TEST(RoutingTableReference, RandomGraphsAgree) {
  for (std::uint64_t seed : {5u, 17u}) {
    Rng rng(seed);
    Graph er = make_erdos_renyi(90, 0.05, rng);
    ensure_connected(er);
    expect_matches_reference(er, "ER seed " + std::to_string(seed));
    Graph wax = make_waxman(90, 0.6, 0.2, rng);
    ensure_connected(wax);
    expect_matches_reference(wax, "Waxman seed " + std::to_string(seed));
  }
}

TEST(RoutingTableReference, HierarchicalTopologiesAgree) {
  for (std::uint64_t seed : {2u, 9u}) {
    Rng rng(seed);
    expect_matches_reference(make_subnet_topology(6, 8, rng).graph,
                             "subnet seed " + std::to_string(seed));
    expect_matches_reference(make_transit_stub(2, 3, 2, 5, rng).graph,
                             "transit-stub seed " + std::to_string(seed));
  }
}

TEST(LinkIndex, NumbersLinksInGraphOrderAndFindsThemFromBothEnds) {
  // Edges added out of id order: links are numbered by smaller end,
  // then in that end's adjacency-list order, not sorted by (a, b).
  Graph g(5);
  g.add_edge(0, 3);
  g.add_edge(2, 1);
  g.add_edge(0, 1);
  g.add_edge(4, 1);
  g.add_edge(3, 2);
  const LinkIndex small(g);
  const std::vector<LinkKey> expected = {
      {0, 3}, {0, 1}, {1, 2}, {1, 4}, {2, 3}};
  ASSERT_EQ(small.size(), expected.size());
  for (std::size_t l = 0; l < expected.size(); ++l)
    EXPECT_EQ(small.link(l), expected[l]) << "link " << l;
  EXPECT_EQ(small.find(0, 2), small.size());  // not adjacent
  EXPECT_EQ(small.find(3, 3), small.size());  // equal ends
  EXPECT_EQ(small.find(0, 5), small.size());  // out of range
  EXPECT_EQ(small.find(9, 0), small.size());
  EXPECT_THROW(small.link(expected.size()), std::out_of_range);

  Rng rng(12);
  for (const Graph& graph :
       {g, make_barabasi_albert(150, 3, rng),
        make_subnet_topology(5, 6, rng).graph}) {
    const LinkIndex links(graph);
    std::vector<LinkKey> in_graph_order;
    for (NodeId a = 0; a < graph.num_nodes(); ++a)
      for (NodeId b : graph.neighbors(a))
        if (a < b) in_graph_order.push_back({a, b});
    ASSERT_EQ(links.size(), in_graph_order.size());
    for (std::size_t l = 0; l < links.size(); ++l) {
      const LinkKey& k = links.link(l);
      EXPECT_EQ(k, in_graph_order[l]);
      EXPECT_EQ(links.find(k.a, k.b), l);
      EXPECT_EQ(links.find(k.b, k.a), l);
      EXPECT_EQ(links.other_end(l, k.a), k.b);
      EXPECT_EQ(links.other_end(l, k.b), k.a);
    }
    // Rows ascend by neighbor and carry the joining link's number.
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      const std::size_t begin = links.offsets()[u];
      const std::size_t end = links.offsets()[u + 1];
      ASSERT_EQ(end - begin, graph.degree(u));
      for (std::size_t p = begin; p < end; ++p) {
        if (p > begin) {
          EXPECT_LT(links.neighbors()[p - 1], links.neighbors()[p]);
        }
        EXPECT_EQ(links.link(links.entry_links()[p]),
                  key_of(u, links.neighbors()[p]));
      }
    }
  }
}

TEST(RoutingTable, PathRejectsOutOfRangeEndpoints) {
  // A host id past the table used to read another row's first links.
  const RoutingTable rt(make_star(5));
  const std::vector<char> via(5, 0);
  EXPECT_THROW(rt.path_coverage({0, 5}, via), std::out_of_range);
  EXPECT_THROW(rt.path_coverage({7, 1}, via), std::out_of_range);
}

TEST(RoutingTable, RejectsDisconnected) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_THROW(RoutingTable{g}, std::invalid_argument);
}

TEST(RoutingTable, StarDistances) {
  const Graph g = make_star(5);
  const RoutingTable rt(g);
  EXPECT_EQ(hops(rt, 0, 0), 0u);
  EXPECT_EQ(hops(rt, 0, 3), 1u);
  EXPECT_EQ(hops(rt, 1, 4), 2u);
}

TEST(RoutingTable, StarNextHopsGoThroughHub) {
  const Graph g = make_star(5);
  const RoutingTable rt(g);
  EXPECT_EQ(next_hop(rt, 1, 4), 0u);
  EXPECT_EQ(next_hop(rt, 0, 4), 4u);
}

TEST(RoutingTable, PathEndpointsAndContinuity) {
  Rng rng(1);
  const Graph g = make_barabasi_albert(60, 2, rng);
  const RoutingTable rt(g);
  const ReferenceRouting ref(g);
  for (NodeId src : {0u, 17u, 42u}) {
    for (NodeId dst : {5u, 33u, 59u}) {
      const auto path = route(rt, src, dst);
      ASSERT_GE(path.size(), 1u);
      EXPECT_EQ(path.front(), src);
      EXPECT_EQ(path.back(), dst);
      for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_TRUE(g.has_edge(path[i], path[i + 1]));
      EXPECT_EQ(path.size(), ref.dist[ref.at(src, dst)] + 1u);
    }
  }
}

TEST(RoutingTable, RingDistancesAreMinimal) {
  const Graph g = make_ring(8);
  const RoutingTable rt(g);
  EXPECT_EQ(hops(rt, 0, 4), 4u);
  EXPECT_EQ(hops(rt, 0, 7), 1u);
  EXPECT_EQ(hops(rt, 2, 6), 4u);
}

TEST(RoutingTable, StarLinkLoads) {
  const Graph g = make_star(4);  // hub 0, leaves 1..3
  const RoutingTable rt(g);
  // Ordered pairs: leaf<->leaf paths (3*2 = 6) cross two hub links each;
  // hub<->leaf (6 ordered) cross one. Each hub-leaf link carries:
  // 2 (to/from hub) + 2*2 (as transit for the other two leaves, both
  // directions) = 6.
  for (NodeId leaf = 1; leaf < 4; ++leaf)
    EXPECT_EQ(rt.link_loads()[rt.links().find(0, leaf)], 6u);
  EXPECT_EQ(rt.total_link_load(), 18u);
}

TEST(RoutingTable, LinkLoadUnknownLinkThrows) {
  const Graph g = make_star(4);
  const RoutingTable rt(g);
  // Loads are indexed by link number; a pair that is not a link has no
  // number, so a checked lookup of its load throws.
  const std::size_t unknown = rt.links().find(1, 2);
  EXPECT_EQ(unknown, rt.links().size());
  ASSERT_EQ(rt.link_loads().size(), rt.links().size());
  EXPECT_THROW(rt.link_loads().at(unknown), std::out_of_range);
  const sim::Network net(g, 0.25, 0.0);
  EXPECT_THROW(net.link_load(unknown), std::out_of_range);
}

TEST(RoutingTable, PathCoverageHubCoversAllLeafPairs) {
  const Graph g = make_star(6);
  const RoutingTable rt(g);
  std::vector<char> via(6, 0);
  via[0] = 1;  // the hub
  const std::vector<NodeId> leaves = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(rt.path_coverage(leaves, via), 1.0);
}

TEST(RoutingTable, PathCoverageExcludesEndpoints) {
  const Graph g = make_star(6);
  const RoutingTable rt(g);
  std::vector<char> via(6, 0);
  via[1] = 1;  // a leaf can never be an intermediate node
  const std::vector<NodeId> leaves = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(rt.path_coverage(leaves, via), 0.0);
}

TEST(RoutingTable, PathCoveragePartial) {
  // Line: 0-1-2-3. Node 1 covers pairs (0,2),(0,3),(2,0),(3,0) among
  // endpoints {0,2,3}: pairs (0,2),(0,3) and reverses = 4 of 6.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const RoutingTable rt(g);
  std::vector<char> via(4, 0);
  via[1] = 1;
  EXPECT_DOUBLE_EQ(rt.path_coverage({0, 2, 3}, via), 4.0 / 6.0);
}

TEST(RoutingTable, PathCoverageValidatesViaSize) {
  const Graph g = make_star(4);
  const RoutingTable rt(g);
  EXPECT_THROW(rt.path_coverage({1, 2}, std::vector<char>(3, 0)),
               std::invalid_argument);
}

TEST(RoutingTable, NodeTransitLoadsOnStar) {
  const Graph g = make_star(5);  // hub 0, leaves 1..4
  const RoutingTable rt(g);
  const auto loads = rt.node_transit_loads();
  // The hub transits every leaf-to-leaf ordered pair: 4*3 = 12.
  EXPECT_EQ(loads[0], 12u);
  for (NodeId leaf = 1; leaf < 5; ++leaf) EXPECT_EQ(loads[leaf], 0u);
}

TEST(RoutingTable, NodeTransitLoadsOnLine) {
  Graph g(4);  // 0-1-2-3
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  const RoutingTable rt(g);
  const auto loads = rt.node_transit_loads();
  // Node 1 transits (0,2),(0,3),(2,0),(3,0) = 4; node 2 symmetric.
  EXPECT_EQ(loads[0], 0u);
  EXPECT_EQ(loads[1], 4u);
  EXPECT_EQ(loads[2], 4u);
  EXPECT_EQ(loads[3], 0u);
}

TEST(Roles, TransitAssignmentPicksTheHub) {
  const Graph g = make_star(20);
  const RoutingTable rt(g);
  const RoleAssignment roles =
      assign_roles_by_transit(g, rt, 1.0 / 20.0, 0.0);
  ASSERT_EQ(roles.backbone.size(), 1u);
  EXPECT_EQ(roles.backbone[0], 0u);
}

TEST(Roles, TransitAndDegreeAgreeAtTheTopOfPowerLaw) {
  Rng rng(6);
  const Graph g = make_barabasi_albert(300, 2, rng);
  const RoutingTable rt(g);
  const RoleAssignment by_degree = assign_roles(g, 0.05, 0.0);
  const RoleAssignment by_transit =
      assign_roles_by_transit(g, rt, 0.05, 0.0);
  // The two top-15 sets overlap heavily on BA graphs.
  std::size_t common = 0;
  for (NodeId b : by_degree.backbone)
    if (by_transit.role[b] == NodeRole::kBackboneRouter) ++common;
  EXPECT_GE(common, by_degree.backbone.size() / 2);
}

TEST(RoutingTable, DeterministicTieBreaking) {
  // Square: 0-1, 1-3, 0-2, 2-3. Two equal paths 0->3; the lowest-id
  // first hop (1) must win deterministically.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 3);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  const RoutingTable rt(g);
  EXPECT_EQ(next_hop(rt, 0, 3), 1u);
}

}  // namespace
}  // namespace dq::graph
