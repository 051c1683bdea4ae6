#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "graph/builders.hpp"
#include "graph/routing.hpp"

namespace dq::graph {
namespace {

TEST(EdgeListIo, ParsesBasicList) {
  const Graph g = parse_edge_list(
      "# a comment\n"
      "1 2\n"
      "2 3\n"
      "\n"
      "1 3\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.is_connected());

  // Tabs, trailing comments and CRLF line ends.
  const Graph h = parse_edge_list(
      "1\t2\n"
      "  2 3   # trailing comment\n"
      "3 1#tight comment\r\n"
      "\t\n");
  EXPECT_EQ(h.num_nodes(), 3u);
  EXPECT_EQ(h.num_edges(), 3u);
}

TEST(EdgeListIo, RemapsSparseIds) {
  const Graph g = parse_edge_list("1000000 42\n42 7\n");
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  // First-appearance order: 1000000 -> 0, 42 -> 1, 7 -> 2.
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(EdgeListIo, SkipsSelfLoopsAndDuplicates) {
  const Graph g = parse_edge_list("1 1\n1 2\n2 1\n1 2\n");
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  EXPECT_THROW(parse_edge_list("1\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("a b\n"), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("1 2 3\n"), std::invalid_argument);
  // A sign is not an id: "-1" used to wrap to 2^64-1, a phantom node.
  for (const char* line : {"-1 2", "1 -2"}) {
    try {
      parse_edge_list(std::string("0 1\n") + line + "\n");
      ADD_FAILURE() << "accepted \"" << line << '"';
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}


TEST(EdgeListIo, RoundTripPreservesStructure) {
  // Parsing remaps ids in first-appearance order, so the round trip is
  // an isomorphism: node/edge counts, degree sequence and connectivity
  // survive even though specific ids may not.
  Rng rng(5);
  const Graph original = make_barabasi_albert(80, 2, rng);
  const Graph parsed = parse_edge_list(to_edge_list(original));
  ASSERT_EQ(parsed.num_nodes(), original.num_nodes());
  ASSERT_EQ(parsed.num_edges(), original.num_edges());
  EXPECT_EQ(parsed.is_connected(), original.is_connected());
  std::vector<std::size_t> degrees_a, degrees_b;
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    degrees_a.push_back(original.degree(v));
    degrees_b.push_back(parsed.degree(v));
  }
  std::sort(degrees_a.begin(), degrees_a.end());
  std::sort(degrees_b.begin(), degrees_b.end());
  EXPECT_EQ(degrees_a, degrees_b);
}

TEST(EdgeListIo, FileRoundTrip) {
  const std::string path = "/tmp/dq_graph_io_test.edges";
  Rng rng(6);
  const Graph original = make_star(10);
  save_edge_list(original, path);
  const Graph loaded = load_edge_list(path);
  EXPECT_EQ(loaded.num_nodes(), 10u);
  EXPECT_EQ(loaded.num_edges(), 9u);
  std::remove(path.c_str());
  EXPECT_THROW(load_edge_list("/nonexistent/nope.edges"),
               std::runtime_error);
}

TEST(TransitStub, StructureAndRoles) {
  Rng rng(7);
  const TransitStubTopology topo = make_transit_stub(3, 4, 2, 10, rng);
  const std::size_t transit = 3 * 4;
  const std::size_t stubs = transit * 2;
  EXPECT_EQ(topo.transit_routers.size(), transit);
  EXPECT_EQ(topo.stub_gateways.size(), stubs);
  EXPECT_EQ(topo.graph.num_nodes(), transit + stubs * 10);
  EXPECT_TRUE(topo.graph.is_connected());

  const RoleAssignment roles = topo.roles();
  EXPECT_EQ(roles.backbone.size(), transit);
  EXPECT_EQ(roles.edge.size(), stubs);
  EXPECT_EQ(roles.hosts.size(), topo.graph.num_nodes() - transit - stubs);

  // Transit routers carry no stub domain; stub members do.
  for (NodeId r : topo.transit_routers)
    EXPECT_EQ(topo.domain_of[r], TransitStubTopology::kNoDomain);
  for (NodeId gw : topo.stub_gateways)
    EXPECT_NE(topo.domain_of[gw], TransitStubTopology::kNoDomain);
}

TEST(TransitStub, AllStubTrafficCrossesTransit) {
  Rng rng(8);
  const TransitStubTopology topo = make_transit_stub(2, 3, 2, 6, rng);
  const RoutingTable routing(topo.graph);
  const RoleAssignment roles = topo.roles();
  // Hosts in different stub domains can only reach each other through
  // the transit core (or their gateways): coverage by backbone+edge is
  // complete for inter-domain pairs. Check via a sample.
  std::vector<char> via(topo.graph.num_nodes(), 0);
  for (NodeId r : topo.transit_routers) via[r] = 1;
  for (NodeId gw : topo.stub_gateways) via[gw] = 1;
  // Pick one host from two different domains.
  NodeId a = 0, b = 0;
  for (NodeId v : roles.hosts) {
    if (topo.domain_of[v] == 0) a = v;
    if (topo.domain_of[v] == 3) b = v;
  }
  EXPECT_DOUBLE_EQ(routing.path_coverage({a, b}, via), 1.0);
}

TEST(TransitStub, Validation) {
  Rng rng(9);
  EXPECT_THROW(make_transit_stub(0, 2, 2, 5, rng), std::invalid_argument);
  EXPECT_THROW(make_transit_stub(2, 0, 2, 5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace dq::graph
