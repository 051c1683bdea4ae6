#include "graph/roles.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/routing.hpp"

namespace dq::graph {

std::size_t RoleAssignment::count(NodeRole r) const {
  return static_cast<std::size_t>(std::count(role.begin(), role.end(), r));
}

std::vector<char> RoleAssignment::indicator(NodeRole r) const {
  std::vector<char> out(role.size(), 0);
  for (std::size_t i = 0; i < role.size(); ++i)
    if (role[i] == r) out[i] = 1;
  return out;
}

namespace {

/// Shared tail of both designation rules: take the top of `order`.
RoleAssignment assign_from_order(std::size_t n,
                                 const std::vector<NodeId>& order,
                                 double backbone_fraction,
                                 double edge_fraction) {
  std::size_t num_backbone =
      static_cast<std::size_t>(backbone_fraction * static_cast<double>(n));
  std::size_t num_edge =
      static_cast<std::size_t>(edge_fraction * static_cast<double>(n));
  // Keep at least one host.
  if (num_backbone + num_edge >= n) {
    const std::size_t excess = num_backbone + num_edge - n + 1;
    num_edge -= std::min(num_edge, excess);
  }

  RoleAssignment out;
  out.role.assign(n, NodeRole::kHost);
  for (std::size_t i = 0; i < num_backbone; ++i) {
    out.role[order[i]] = NodeRole::kBackboneRouter;
    out.backbone.push_back(order[i]);
  }
  for (std::size_t i = num_backbone; i < num_backbone + num_edge; ++i) {
    out.role[order[i]] = NodeRole::kEdgeRouter;
    out.edge.push_back(order[i]);
  }
  for (NodeId v = 0; v < n; ++v)
    if (out.role[v] == NodeRole::kHost) out.hosts.push_back(v);
  return out;
}

void validate_fractions(const Graph& g, double backbone_fraction,
                        double edge_fraction) {
  if (backbone_fraction < 0.0 || edge_fraction < 0.0 ||
      backbone_fraction + edge_fraction > 1.0)
    throw std::invalid_argument("assign_roles: bad fractions");
  if (g.num_nodes() == 0)
    throw std::invalid_argument("assign_roles: empty graph");
}

}  // namespace

RoleAssignment assign_roles(const Graph& g, double backbone_fraction,
                            double edge_fraction) {
  validate_fractions(g, backbone_fraction, edge_fraction);
  return assign_from_order(g.num_nodes(), g.nodes_by_degree_desc(),
                           backbone_fraction, edge_fraction);
}

RoleAssignment assign_roles_by_transit(const Graph& g,
                                       const RoutingTable& routing,
                                       double backbone_fraction,
                                       double edge_fraction) {
  validate_fractions(g, backbone_fraction, edge_fraction);
  const std::vector<std::uint64_t>& loads = routing.node_transit_loads();
  std::vector<NodeId> order(g.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i)
    order[i] = static_cast<NodeId>(i);
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (loads[a] != loads[b]) return loads[a] > loads[b];
    return a < b;
  });
  return assign_from_order(g.num_nodes(), order, backbone_fraction,
                           edge_fraction);
}

}  // namespace dq::graph
