#include "graph/builders.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>

namespace dq::graph {

Graph make_star(std::size_t n) {
  if (n < 2) throw std::invalid_argument("make_star: need n >= 2");
  Graph g(n);
  for (NodeId leaf = 1; leaf < n; ++leaf) g.add_edge(0, leaf);
  return g;
}

Graph make_complete(std::size_t n) {
  if (n < 1) throw std::invalid_argument("make_complete: need n >= 1");
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b) g.add_edge(a, b);
  return g;
}

Graph make_ring(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_ring: need n >= 3");
  Graph g(n);
  for (NodeId i = 0; i < n; ++i)
    g.add_edge(i, static_cast<NodeId>((i + 1) % n));
  return g;
}

Graph make_erdos_renyi(std::size_t n, double p, Rng& rng) {
  if (n == 0) throw std::invalid_argument("make_erdos_renyi: n must be > 0");
  if (p < 0.0 || p > 1.0)
    throw std::invalid_argument("make_erdos_renyi: p outside [0,1]");
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b)
      if (rng.bernoulli(p)) g.add_edge(a, b);
  return g;
}

Graph make_barabasi_albert(std::size_t n, std::size_t m, Rng& rng) {
  if (m < 1) throw std::invalid_argument("make_barabasi_albert: m >= 1");
  if (n <= m)
    throw std::invalid_argument("make_barabasi_albert: need n > m");
  // The edges are drawn first and the graph built from them in one
  // pass, which sizes each row once. Seed clique of m+1 nodes:
  std::vector<Edge> edges;
  edges.reserve(m * n);
  for (NodeId a = 0; a < m + 1; ++a)
    for (NodeId b = a + 1; b < m + 1; ++b) edges.emplace_back(a, b);

  // Degree-proportional sampling via the repeated-endpoints trick: each
  // edge contributes both endpoints to the urn, so each clique node
  // enters it m times.
  std::vector<NodeId> urn;
  urn.reserve(2 * m * n);
  for (NodeId a = 0; a < m + 1; ++a) urn.insert(urn.end(), m, a);

  std::vector<NodeId> chosen;
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    chosen.clear();
    while (chosen.size() < m) {
      const NodeId candidate = urn[rng.uniform_int(urn.size())];
      if (std::find(chosen.begin(), chosen.end(), candidate) == chosen.end())
        chosen.push_back(candidate);
    }
    for (NodeId target : chosen) {
      edges.emplace_back(v, target);
      urn.push_back(v);
      urn.push_back(target);
    }
  }
  return Graph(n, edges);
}

Graph make_waxman(std::size_t n, double alpha, double beta, Rng& rng) {
  if (n == 0) throw std::invalid_argument("make_waxman: n must be > 0");
  if (alpha <= 0.0 || alpha > 1.0)
    throw std::invalid_argument("make_waxman: alpha outside (0,1]");
  if (beta <= 0.0) throw std::invalid_argument("make_waxman: beta <= 0");
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform();
    y[i] = rng.uniform();
  }
  const double L = std::sqrt(2.0);
  Graph g(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b) {
      const double dx = x[a] - x[b], dy = y[a] - y[b];
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (rng.bernoulli(alpha * std::exp(-dist / (beta * L))))
        g.add_edge(a, b);
    }
  return g;
}

void ensure_connected(Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return;
  std::vector<std::uint32_t> component(n, 0);
  std::uint32_t num_components = 0;
  std::vector<NodeId> stack;
  std::vector<char> seen(n, 0);
  std::vector<NodeId> representative;
  for (NodeId start = 0; start < n; ++start) {
    if (seen[start]) continue;
    ++num_components;
    representative.push_back(start);
    stack.push_back(start);
    seen[start] = 1;
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      component[v] = num_components - 1;
      for (NodeId w : g.neighbors(v))
        if (!seen[w]) {
          seen[w] = 1;
          stack.push_back(w);
        }
    }
  }
  for (std::size_t c = 1; c < representative.size(); ++c)
    g.add_edge(representative[0], representative[c]);
}

SubnetTopology make_subnet_topology(std::size_t num_subnets,
                                    std::size_t hosts_per_subnet, Rng& rng) {
  if (num_subnets == 0)
    throw std::invalid_argument("make_subnet_topology: need subnets");
  if (hosts_per_subnet == 0)
    throw std::invalid_argument("make_subnet_topology: need hosts");

  SubnetTopology topo;
  const std::size_t total = num_subnets * (hosts_per_subnet + 1);
  topo.graph = Graph(total);
  topo.subnet_of.resize(total);
  topo.members.resize(num_subnets);

  NodeId next = 0;
  for (std::size_t s = 0; s < num_subnets; ++s) {
    const NodeId gateway = next++;
    topo.gateways.push_back(gateway);
    topo.subnet_of[gateway] = s;
    topo.members[s].push_back(gateway);
    for (std::size_t h = 0; h < hosts_per_subnet; ++h) {
      const NodeId host = next++;
      topo.subnet_of[host] = s;
      // Switched LAN: connect the new host to every member so
      // intra-subnet paths are direct (one hop, no gateway transit).
      for (NodeId member : topo.members[s]) topo.graph.add_edge(member, host);
      topo.members[s].push_back(host);
    }
  }

  // Backbone interconnect of the gateways.
  if (num_subnets == 2) {
    topo.graph.add_edge(topo.gateways[0], topo.gateways[1]);
  } else if (num_subnets > 2) {
    const std::size_t m = std::min<std::size_t>(2, num_subnets - 1);
    Graph backbone = make_barabasi_albert(num_subnets, m, rng);
    for (NodeId a = 0; a < backbone.num_nodes(); ++a)
      for (NodeId b : backbone.neighbors(a))
        if (a < b) topo.graph.add_edge(topo.gateways[a], topo.gateways[b]);
  }
  return topo;
}

RoleAssignment TransitStubTopology::roles() const {
  RoleAssignment out;
  out.role.assign(graph.num_nodes(), NodeRole::kHost);
  for (NodeId r : transit_routers) {
    out.role[r] = NodeRole::kBackboneRouter;
    out.backbone.push_back(r);
  }
  for (NodeId gw : stub_gateways) {
    out.role[gw] = NodeRole::kEdgeRouter;
    out.edge.push_back(gw);
  }
  for (NodeId v = 0; v < graph.num_nodes(); ++v)
    if (out.role[v] == NodeRole::kHost) out.hosts.push_back(v);
  return out;
}

TransitStubTopology make_transit_stub(std::size_t transit_domains,
                                      std::size_t routers_per_transit,
                                      std::size_t stubs_per_router,
                                      std::size_t nodes_per_stub,
                                      Rng& rng) {
  if (transit_domains == 0 || routers_per_transit == 0 ||
      stubs_per_router == 0 || nodes_per_stub == 0)
    throw std::invalid_argument("make_transit_stub: all sizes must be > 0");

  TransitStubTopology topo;
  const std::size_t total_transit = transit_domains * routers_per_transit;
  const std::size_t total_stubs = total_transit * stubs_per_router;
  const std::size_t total_nodes =
      total_transit + total_stubs * nodes_per_stub;
  topo.graph = Graph(total_nodes);
  topo.domain_of.assign(total_nodes, TransitStubTopology::kNoDomain);

  // Transit domains: a ring per domain plus a random chord, domains
  // then pairwise bridged by one random inter-domain link.
  NodeId next = 0;
  std::vector<std::vector<NodeId>> domains(transit_domains);
  for (std::size_t d = 0; d < transit_domains; ++d) {
    for (std::size_t r = 0; r < routers_per_transit; ++r) {
      domains[d].push_back(next);
      topo.transit_routers.push_back(next);
      ++next;
    }
    const auto& members = domains[d];
    if (members.size() >= 2) {
      for (std::size_t r = 0; r < members.size(); ++r)
        if (!topo.graph.has_edge(members[r],
                                 members[(r + 1) % members.size()]))
          topo.graph.add_edge(members[r],
                              members[(r + 1) % members.size()]);
      if (members.size() > 3) {
        // One random chord for redundancy.
        for (int attempt = 0; attempt < 8; ++attempt) {
          const NodeId a = members[rng.uniform_int(members.size())];
          const NodeId b = members[rng.uniform_int(members.size())];
          if (a != b && !topo.graph.has_edge(a, b)) {
            topo.graph.add_edge(a, b);
            break;
          }
        }
      }
    }
  }
  for (std::size_t d1 = 0; d1 < transit_domains; ++d1)
    for (std::size_t d2 = d1 + 1; d2 < transit_domains; ++d2) {
      const NodeId a = domains[d1][rng.uniform_int(domains[d1].size())];
      const NodeId b = domains[d2][rng.uniform_int(domains[d2].size())];
      if (!topo.graph.has_edge(a, b)) topo.graph.add_edge(a, b);
    }

  // Stub domains: an ER LAN per stub (p sized for connectivity),
  // patched connected, bridged to its transit router via a gateway.
  std::size_t stub_id = 0;
  for (NodeId router : topo.transit_routers) {
    for (std::size_t s = 0; s < stubs_per_router; ++s, ++stub_id) {
      std::vector<NodeId> members;
      for (std::size_t h = 0; h < nodes_per_stub; ++h) {
        members.push_back(next);
        topo.domain_of[next] = stub_id;
        ++next;
      }
      // Sparse random LAN wiring among the stub members.
      const double p =
          nodes_per_stub > 1
              ? std::min(1.0, 2.0 / static_cast<double>(nodes_per_stub - 1))
              : 0.0;
      for (std::size_t i = 0; i < members.size(); ++i)
        for (std::size_t j = i + 1; j < members.size(); ++j)
          if (rng.bernoulli(p)) topo.graph.add_edge(members[i], members[j]);
      // Guarantee stub-internal connectivity with a spanning chain.
      for (std::size_t i = 0; i + 1 < members.size(); ++i)
        if (!topo.graph.has_edge(members[i], members[i + 1]))
          topo.graph.add_edge(members[i], members[i + 1]);
      const NodeId gateway = members[0];
      topo.stub_gateways.push_back(gateway);
      topo.graph.add_edge(gateway, router);
    }
  }
  return topo;
}

double estimate_powerlaw_exponent(const Graph& g) {
  // CCDF log-log fit: P(degree >= k) ~ k^-(gamma-1).
  std::map<std::size_t, std::size_t> degree_counts;
  for (NodeId v = 0; v < g.num_nodes(); ++v) ++degree_counts[g.degree(v)];
  if (degree_counts.size() < 3)
    throw std::invalid_argument(
        "estimate_powerlaw_exponent: need >= 3 distinct degrees");

  const double n = static_cast<double>(g.num_nodes());
  double tail = n;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t points = 0;
  for (const auto& [k, count] : degree_counts) {
    if (k > 0) {
      const double lx = std::log(static_cast<double>(k));
      const double ly = std::log(tail / n);
      sx += lx;
      sy += ly;
      sxx += lx * lx;
      sxy += lx * ly;
      ++points;
    }
    tail -= static_cast<double>(count);
  }
  const double p = static_cast<double>(points);
  const double slope = (p * sxy - sx * sy) / (p * sxx - sx * sx);
  return 1.0 - slope;  // gamma
}

}  // namespace dq::graph
