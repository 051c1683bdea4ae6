#include "simulator/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace dq::sim {
namespace {

TEST(Network, WrapsGraphWithRoles) {
  Rng rng(1);
  const Network net(graph::make_barabasi_albert(100, 2, rng));
  EXPECT_EQ(net.num_nodes(), 100u);
  EXPECT_EQ(net.roles().backbone.size(), 5u);
  EXPECT_EQ(net.roles().edge.size(), 10u);
  EXPECT_FALSE(net.has_subnets());
}

TEST(Network, LinkIndexRoundTrip) {
  // Both backends number links as graph::LinkIndex does, so a link
  // found from either end maps back to the same endpoints.
  NetworkOptions tree_only;
  tree_only.routing_table_bytes = 0;
  for (const NetworkOptions& opts : {NetworkOptions{}, tree_only}) {
    const Network net(graph::make_star(5), 0.2, 0.0, opts);
    EXPECT_EQ(net.has_routing_table(), opts.routing_table_bytes > 0);
    EXPECT_EQ(net.num_links(), 4u);
    const graph::LinkIndex links(net.graph());
    ASSERT_EQ(links.size(), net.num_links());
    for (std::size_t l = 0; l < net.num_links(); ++l) {
      const graph::LinkKey key = net.link(l);
      EXPECT_EQ(links.find(key.a, key.b), l);
      EXPECT_EQ(links.find(key.b, key.a), l);
    }
    EXPECT_EQ(links.find(1, 2), links.size());
    EXPECT_THROW(net.link(net.num_links()), std::out_of_range);
  }
}

TEST(Network, LinkLoadsAndMean) {
  const Network net(graph::make_star(4), 0.25, 0.0);
  // All three hub links carry load 6 (see routing tests).
  ASSERT_EQ(net.num_links(), 3u);
  for (std::size_t l = 0; l < net.num_links(); ++l)
    EXPECT_EQ(net.link_load(l), 6u);
  EXPECT_DOUBLE_EQ(static_cast<double>(net.total_link_load()) /
                       static_cast<double>(net.num_links()),
                   6.0);
}

TEST(Network, RoutingBudgetCountsFourBytesPerPair) {
  Rng rng(10);
  const graph::Graph g = graph::make_barabasi_albert(30, 2, rng);
  NetworkOptions opts;
  opts.routing_table_bytes = 30 * 30 * 4;
  EXPECT_TRUE(Network(g, 0.05, 0.10, opts).has_routing_table());
  opts.routing_table_bytes -= 1;
  EXPECT_FALSE(Network(g, 0.05, 0.10, opts).has_routing_table());
}

TEST(Network, SubnetTopologyRoles) {
  Rng rng(2);
  const Network net(graph::make_subnet_topology(3, 4, rng));
  EXPECT_TRUE(net.has_subnets());
  EXPECT_EQ(net.num_subnets(), 3u);
  EXPECT_EQ(net.roles().edge.size(), 3u);
  EXPECT_EQ(net.roles().backbone.size(), 0u);
  EXPECT_EQ(net.roles().hosts.size(), 12u);
  for (graph::NodeId gw : net.roles().edge)
    EXPECT_EQ(net.roles().role[gw], graph::NodeRole::kEdgeRouter);
}

TEST(Network, SubnetMembership) {
  Rng rng(3);
  const Network net(graph::make_subnet_topology(2, 3, rng));
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v) {
    const auto subnet = net.subnet_of(v);
    ASSERT_TRUE(subnet.has_value());
    const auto& members = net.subnet_members(*subnet);
    EXPECT_NE(std::find(members.begin(), members.end(), v), members.end());
  }
}

TEST(Network, BackboneLinksOnSubnetTopologyAreGatewayInterconnect) {
  Rng rng(4);
  const Network net(graph::make_subnet_topology(3, 4, rng));
  std::size_t backbone_links = 0;
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    if (net.link_is_backbone(l)) {
      ++backbone_links;
      const graph::LinkKey key = net.link(l);
      EXPECT_EQ(net.roles().role[key.a], graph::NodeRole::kEdgeRouter);
      EXPECT_EQ(net.roles().role[key.b], graph::NodeRole::kEdgeRouter);
    }
  }
  EXPECT_GE(backbone_links, 2u);  // 3 gateways interconnected
}

TEST(Network, EdgeLinksTouchEdgeRouters) {
  Rng rng(5);
  const Network net(graph::make_barabasi_albert(100, 2, rng));
  for (std::size_t l = 0; l < net.num_links(); ++l) {
    if (net.link_is_edge(l)) {
      const graph::LinkKey key = net.link(l);
      EXPECT_TRUE(
          net.roles().role[key.a] == graph::NodeRole::kEdgeRouter ||
          net.roles().role[key.b] == graph::NodeRole::kEdgeRouter);
    }
  }
}

TEST(Network, SubnetlessHasNoSubnetInfo) {
  const Network net(graph::make_star(4), 0.25, 0.0);
  EXPECT_FALSE(net.subnet_of(1).has_value());
  EXPECT_EQ(net.num_subnets(), 0u);
}

TEST(Network, BorrowedSubnetViewsMatchAccessors) {
  Rng rng(6);
  const Network net(graph::make_subnet_topology(3, 4, rng));
  ASSERT_EQ(net.subnet_ids().size(), net.num_nodes());
  ASSERT_EQ(net.subnet_lists().size(), net.num_subnets());
  for (graph::NodeId v = 0; v < net.num_nodes(); ++v)
    EXPECT_EQ(net.subnet_ids()[v], *net.subnet_of(v));
  for (std::size_t s = 0; s < net.num_subnets(); ++s)
    EXPECT_EQ(net.subnet_lists()[s], net.subnet_members(s));
}

TEST(Network, TreeBackendSkipsAllPairsTable) {
  Rng rng(8);
  NetworkOptions opts;
  opts.routing_table_bytes = 0;  // force tree routing on a small graph
  const Network net(graph::make_barabasi_albert(80, 2, rng), 0.05, 0.10,
                    opts);
  EXPECT_FALSE(net.has_routing_table());
  EXPECT_THROW(net.routing(), std::logic_error);
  EXPECT_GT(net.total_link_load(), 0u);
}

TEST(Network, TreeBackendRoutesEveryPairAlongRealLinks) {
  Rng rng(9);
  graph::Graph g = graph::make_barabasi_albert(80, 2, rng);
  NetworkOptions opts;
  opts.routing_table_bytes = 0;
  const Network net(g, 0.05, 0.10, opts);
  const std::size_t n = net.num_nodes();
  for (graph::NodeId a = 0; a < n; ++a)
    for (graph::NodeId b = 0; b < n; ++b) {
      if (a == b) continue;
      graph::NodeId at = a;
      std::size_t hops = 0;
      while (at != b) {
        const RoutedTopology::HopStep hop = net.topology().hop_toward(at, b);
        ASSERT_TRUE(g.has_edge(at, hop.next)) << at << "->" << hop.next;
        const graph::LinkKey crossed = {std::min(at, hop.next),
                                        std::max(at, hop.next)};
        ASSERT_EQ(net.link(hop.link), crossed);
        at = hop.next;
        // A tree path visits every node at most once.
        ASSERT_LT(++hops, n) << a << "->" << b << " did not terminate";
      }
    }
}

TEST(Network, TreeBackendIsExactOnAStar) {
  // On a tree (the star is one) the BFS tree IS the graph, so tree
  // routing must agree with the all-pairs table on every hop and on
  // every link load.
  NetworkOptions opts;
  opts.routing_table_bytes = 0;
  const Network tree(graph::make_star(30), 1.0 / 30.0, 0.0, opts);
  const Network table(graph::make_star(30), 1.0 / 30.0, 0.0);
  ASSERT_EQ(tree.num_links(), table.num_links());
  for (graph::NodeId a = 0; a < 30; ++a)
    for (graph::NodeId b = 0; b < 30; ++b) {
      if (a == b) continue;
      const RoutedTopology::HopStep x = tree.topology().hop_toward(a, b);
      const RoutedTopology::HopStep y = table.topology().hop_toward(a, b);
      EXPECT_EQ(x.next, y.next);
      EXPECT_EQ(x.link, y.link);
    }
  for (std::size_t l = 0; l < tree.num_links(); ++l)
    EXPECT_EQ(tree.link_load(l), table.link_load(l));
  EXPECT_EQ(tree.total_link_load(), table.total_link_load());
}

TEST(Network, SpecsDifferingInRolesShareOneTopology) {
  // build_network(spec, topology) puts the spec's roles on a topology
  // built once: the same roles and routes as a fresh build_network.
  TopologySpec spec;
  spec.nodes = 200;
  const TopologySpec::GraphKey key = spec.graph_key();
  const std::shared_ptr<const RoutedTopology> topology = build_topology(spec);
  for (const double depth : {0.0, 0.02, 0.2}) {
    spec.backbone_fraction = depth;
    spec.edge_fraction = 0.0;
    EXPECT_EQ(spec.graph_key(), key);
    const Network shared = build_network(spec, topology);
    const Network fresh = build_network(spec);
    EXPECT_EQ(&shared.topology(), topology.get());
    EXPECT_EQ(shared.roles().role, fresh.roles().role);
    EXPECT_EQ(shared.roles().backbone, fresh.roles().backbone);
    EXPECT_EQ(shared.roles().hosts, fresh.roles().hosts);
    EXPECT_EQ(shared.graph().num_edges(), fresh.graph().num_edges());
    for (graph::NodeId b = 1; b < 200; ++b)
      EXPECT_EQ(shared.topology().hop_toward(0, b).link,
                fresh.topology().hop_toward(0, b).link);
  }
  spec.build_seed += 1;
  EXPECT_NE(spec.graph_key(), key);
  // A subnet spec's roles are its gateways, shared or not.
  TopologySpec subnets;
  subnets.kind = TopologySpec::Kind::kSubnets;
  subnets.num_subnets = 4;
  subnets.hosts_per_subnet = 5;
  const Network shared = build_network(subnets, build_topology(subnets));
  EXPECT_EQ(shared.roles().edge, build_network(subnets).roles().edge);
  EXPECT_EQ(shared.roles().edge, shared.topology().gateways());
}

TEST(Network, SharedTopologyRejectsMismatchedRoles) {
  const auto topology =
      std::make_shared<const RoutedTopology>(graph::make_star(5));
  EXPECT_THROW(Network(nullptr, graph::RoleAssignment{}),
               std::invalid_argument);
  EXPECT_THROW(Network(topology, graph::assign_roles(graph::make_star(6))),
               std::invalid_argument);
  EXPECT_NO_THROW(Network(topology, graph::assign_roles(topology->graph())));
}

}  // namespace
}  // namespace dq::sim
