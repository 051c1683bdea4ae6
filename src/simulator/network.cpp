#include "simulator/network.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "stats/rng.hpp"

namespace dq::sim {

namespace {

/// All-pairs table within budget? 4 bytes per ordered pair, the uint32
/// first link graph::RoutingTable keeps, which puts the switch-over to
/// tree routing at 11,585 nodes for the 512 MiB default.
bool routing_table_fits(std::size_t n, const NetworkOptions& options) {
  return n == 0 || n <= options.routing_table_bytes / (n * 4);
}

/// A subnet topology's roles: its gateways are the edge routers,
/// everything else is a host. The backbone role is attached to the
/// gateways' interconnect links via link_is_backbone, so there are no
/// separate backbone nodes.
graph::RoleAssignment gateway_roles(const RoutedTopology& topology) {
  graph::RoleAssignment roles;
  roles.role.assign(topology.num_nodes(), graph::NodeRole::kHost);
  for (NodeId gw : topology.gateways()) {
    roles.role[gw] = graph::NodeRole::kEdgeRouter;
    roles.edge.push_back(gw);
  }
  for (NodeId v = 0; v < topology.num_nodes(); ++v)
    if (roles.role[v] == graph::NodeRole::kHost) roles.hosts.push_back(v);
  return roles;
}

}  // namespace

RoutedTopology::RoutedTopology(graph::Graph g, NetworkOptions options)
    : graph_(std::move(g)) {
  build_routing(options);
}

RoutedTopology::RoutedTopology(graph::SubnetTopology topo,
                               NetworkOptions options)
    : graph_(std::move(topo.graph)),
      subnet_of_(std::move(topo.subnet_of)),
      subnet_members_(std::move(topo.members)),
      gateways_(std::move(topo.gateways)) {
  build_routing(options);
}

void RoutedTopology::build_routing(const NetworkOptions& options) {
  if (routing_table_fits(graph_.num_nodes(), options))
    routing_ = std::make_unique<graph::RoutingTable>(graph_);
  else
    build_tree_routing();
}

const graph::RoutingTable& RoutedTopology::routing() const {
  if (routing_ == nullptr)
    throw std::logic_error(
        "RoutedTopology::routing: all-pairs table not built (graph exceeds "
        "NetworkOptions::routing_table_bytes; tree routing is in use — "
        "check has_routing_table())");
  return *routing_;
}

void RoutedTopology::build_tree_routing() {
  const std::size_t n = graph_.num_nodes();
  tree_links_ = graph::LinkIndex(graph_);
  if (n == 0) return;
  const std::vector<std::size_t>& row = tree_links_.offsets();
  const std::vector<NodeId>& adj = tree_links_.neighbors();
  const std::vector<std::uint32_t>& link_of = tree_links_.entry_links();

  // Root at the highest-degree node (ties → lowest id) so the tree's
  // trunk coincides with the hub the role assignment makes backbone.
  NodeId root = 0;
  for (NodeId v = 1; v < n; ++v)
    if (row[v + 1] - row[v] > row[root + 1] - row[root]) root = v;

  // BFS over the adjacency rows (sorted by neighbor id, so the tree is
  // deterministic for a given graph).
  tree_parent_.assign(n, root);
  tree_parent_link_.assign(n, 0);
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<std::uint8_t> visited(n, 0);
  visited[root] = 1;
  order.push_back(root);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NodeId v = order[head];
    for (std::size_t e = row[v]; e < row[v + 1]; ++e) {
      const NodeId u = adj[e];
      if (visited[u]) continue;
      visited[u] = 1;
      tree_parent_[u] = v;
      tree_parent_link_[u] = link_of[e];
      order.push_back(u);
    }
  }
  if (order.size() != n)
    throw std::invalid_argument("Network: graph must be connected");

  // Subtree sizes by folding the BFS order backwards.
  std::vector<std::uint32_t> subtree(n, 1);
  for (std::size_t i = n; i-- > 1;) {
    const NodeId v = order[i];
    subtree[tree_parent_[v]] += subtree[v];
  }

  // Children CSR, per-parent in ascending child id (so the tour-entry
  // times assigned below increase along each row — the invariant
  // tree_hop's binary search relies on).
  tree_child_offset_.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v)
    if (v != root) ++tree_child_offset_[tree_parent_[v] + 1];
  for (std::size_t v = 0; v < n; ++v)
    tree_child_offset_[v + 1] += tree_child_offset_[v];
  tree_children_.resize(n - 1);
  {
    std::vector<std::size_t> cursor(tree_child_offset_.begin(),
                                    tree_child_offset_.end() - 1);
    for (NodeId v = 0; v < n; ++v)
      if (v != root) tree_children_[cursor[tree_parent_[v]]++] = v;
  }

  // Euler-tour entry times without recursion: each node hands out
  // consecutive blocks of its interval to its children in CSR order.
  tree_tin_.assign(n, 0);
  tree_tout_.assign(n, 0);
  tree_tout_[root] = subtree[root];
  for (const NodeId v : order) {
    std::uint32_t cursor = tree_tin_[v] + 1;
    for (std::size_t c = tree_child_offset_[v]; c < tree_child_offset_[v + 1];
         ++c) {
      const NodeId child = tree_children_[c];
      tree_tin_[child] = cursor;
      cursor += subtree[child];
      tree_tout_[child] = cursor;
    }
  }

  // Tree link loads: a tree edge to a subtree of s nodes carries every
  // ordered pair crossing it, 2·s·(N−s); non-tree links carry nothing.
  tree_link_loads_.assign(tree_links_.size(), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (v == root) continue;
    const std::uint64_t s = subtree[v];
    tree_link_loads_[tree_parent_link_[v]] =
        2 * s * (static_cast<std::uint64_t>(n) - s);
    tree_total_link_load_ += tree_link_loads_[tree_parent_link_[v]];
  }
}

std::optional<std::size_t> RoutedTopology::subnet_of(NodeId n) const {
  if (subnet_of_.empty()) return std::nullopt;
  return subnet_of_.at(n);
}

const std::vector<NodeId>& RoutedTopology::subnet_members(
    std::size_t subnet) const {
  return subnet_members_.at(subnet);
}

Network::Network(graph::Graph g, double backbone_fraction,
                 double edge_fraction, NetworkOptions options)
    : topology_(std::make_shared<const RoutedTopology>(std::move(g), options)),
      roles_(graph::assign_roles(topology_->graph(), backbone_fraction,
                                 edge_fraction)) {}

Network::Network(graph::Graph g, graph::RoleAssignment roles,
                 NetworkOptions options)
    : Network(std::make_shared<const RoutedTopology>(std::move(g), options),
              std::move(roles)) {}

Network::Network(graph::SubnetTopology topo, NetworkOptions options)
    : topology_(
          std::make_shared<const RoutedTopology>(std::move(topo), options)),
      roles_(gateway_roles(*topology_)) {}

Network::Network(std::shared_ptr<const RoutedTopology> topology,
                 graph::RoleAssignment roles)
    : topology_(std::move(topology)), roles_(std::move(roles)) {
  if (topology_ == nullptr)
    throw std::invalid_argument("Network: null topology");
  if (roles_.role.size() != topology_->num_nodes())
    throw std::invalid_argument("Network: role assignment size mismatch");
}

bool Network::link_touches_role(std::size_t index,
                                graph::NodeRole role) const {
  const graph::LinkKey& l = link(index);
  return roles_.role.at(l.a) == role || roles_.role.at(l.b) == role;
}

bool Network::link_is_backbone(std::size_t index) const {
  if (link_touches_role(index, graph::NodeRole::kBackboneRouter))
    return true;
  if (!has_subnets()) return false;
  const graph::LinkKey& l = link(index);
  return roles_.role.at(l.a) == graph::NodeRole::kEdgeRouter &&
         roles_.role.at(l.b) == graph::NodeRole::kEdgeRouter;
}

std::shared_ptr<const RoutedTopology> build_topology(
    const TopologySpec& spec) {
  switch (spec.kind) {
    case TopologySpec::Kind::kStar:
      return std::make_shared<const RoutedTopology>(
          graph::make_star(spec.nodes));
    case TopologySpec::Kind::kPowerLaw: {
      Rng rng(spec.build_seed);
      return std::make_shared<const RoutedTopology>(
          graph::make_barabasi_albert(spec.nodes, spec.ba_links, rng));
    }
    case TopologySpec::Kind::kSubnets: {
      Rng rng(spec.build_seed);
      return std::make_shared<const RoutedTopology>(graph::make_subnet_topology(
          spec.num_subnets, spec.hosts_per_subnet, rng));
    }
  }
  throw std::invalid_argument("TopologySpec: unknown kind");
}

Network build_network(const TopologySpec& spec) {
  return build_network(spec, build_topology(spec));
}

Network build_network(const TopologySpec& spec,
                      std::shared_ptr<const RoutedTopology> topology) {
  if (topology == nullptr)
    throw std::invalid_argument("build_network: null topology");
  graph::RoleAssignment roles =
      spec.kind == TopologySpec::Kind::kSubnets
          ? gateway_roles(*topology)
          : graph::assign_roles(topology->graph(), spec.backbone_fraction,
                                spec.edge_fraction);
  return Network(std::move(topology), std::move(roles));
}

}  // namespace dq::sim
