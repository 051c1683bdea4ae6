#include "graph/routing.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dq::graph {

namespace {
constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
}

RoutingTable::RoutingTable(const Graph& g) : n_(g.num_nodes()) {
  if (n_ == 0) throw std::invalid_argument("RoutingTable: empty graph");

  // CSR adjacency, rows sorted by neighbor id, so the first neighbor
  // one hop closer to a destination is also the lowest-id one.
  std::vector<std::size_t> row(n_ + 1, 0);
  for (NodeId u = 0; u < n_; ++u) row[u + 1] = row[u] + g.degree(u);
  std::vector<NodeId> adj(row[n_]);
  for (NodeId u = 0; u < n_; ++u) {
    const auto nbrs = g.neighbors(u);
    std::copy(nbrs.begin(), nbrs.end(), adj.begin() + row[u]);
    std::sort(adj.begin() + row[u], adj.begin() + row[u + 1]);
  }

  // Links sorted by (a, b) fall out of the sorted rows; link_of maps
  // each directed CSR entry to its undirected link's ordinal.
  link_row_.assign(n_ + 1, 0);
  for (NodeId a = 0; a < n_; ++a) {
    for (std::size_t p = row[a]; p < row[a + 1]; ++p)
      if (a < adj[p]) links_.push_back({a, adj[p]});
    link_row_[a + 1] = links_.size();
  }
  std::vector<std::uint32_t> link_of(adj.size());
  for (NodeId u = 0; u < n_; ++u)
    for (std::size_t p = row[u]; p < row[u + 1]; ++p)
      link_of[p] = static_cast<std::uint32_t>(
          link_ordinal(make_link_key(u, adj[p])));
  link_load_.assign(links_.size(), 0);
  transit_.assign(n_, 0);
  next_.resize(n_ * n_);

  std::vector<std::uint32_t> dist(n_);
  std::vector<NodeId> order(n_ + 1);      // BFS order from dst (+1 slack)
  std::vector<std::uint32_t> subtree(n_); // sources routed through a node
  for (NodeId dst = 0; dst < n_; ++dst) {
    std::fill(dist.begin(), dist.end(), kUnreachable);
    dist[dst] = 0;
    order[0] = dst;
    std::size_t tail = 1;
    for (std::size_t head = 0; head < tail; ++head) {
      const NodeId u = order[head];
      const std::uint32_t d = dist[u] + 1;
      // Branch-free relaxation: every neighbor is written to the queue
      // slot past the tail, which only advances for a fresh one.
      for (std::size_t p = row[u]; p < row[u + 1]; ++p) {
        const NodeId v = adj[p];
        const bool fresh = dist[v] == kUnreachable;
        dist[v] = fresh ? d : dist[v];
        order[tail] = v;
        tail += fresh;
      }
    }
    if (tail != n_)
      throw std::invalid_argument("RoutingTable: graph is disconnected");

    // Reverse BFS order visits a node only after every node routed
    // through it, so subtree[u] is final when u hands it to its next
    // hop: that many sources cross u's link toward dst, and all but u
    // itself transit u.
    std::fill(subtree.begin(), subtree.end(), 1);
    for (std::size_t i = n_; i-- > 1;) {
      const NodeId u = order[i];
      std::size_t p = row[u];
      while (dist[adj[p]] + 1 != dist[u]) ++p;
      const NodeId hop = adj[p];
      next_[index(u, dst)] = hop;
      subtree[hop] += subtree[u];
      link_load_[link_of[p]] += subtree[u];
      transit_[u] += subtree[u] - 1;
    }
    next_[index(dst, dst)] = dst;
  }
  total_load_ = 0;
  for (std::uint64_t l : link_load_) total_load_ += l;
}

std::optional<NodeId> RoutingTable::next_hop(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_)
    throw std::out_of_range("RoutingTable::next_hop");
  if (from == to) return std::nullopt;
  return next_[index(from, to)];
}

std::vector<NodeId> RoutingTable::path(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_) throw std::out_of_range("RoutingTable::path");
  std::vector<NodeId> p = {from};
  NodeId cur = from;
  while (cur != to) {
    cur = next_[index(cur, to)];
    p.push_back(cur);
  }
  return p;
}

std::size_t RoutingTable::link_ordinal(const LinkKey& key) const noexcept {
  if (key.a >= link_row_.size() - 1) return links_.size();
  // links_ is sorted by (a, b), so each smaller-endpoint row is a
  // contiguous slice ordered by b.
  std::size_t lo = link_row_[key.a];
  std::size_t hi = link_row_[key.a + 1];
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (links_[mid].b < key.b)
      lo = mid + 1;
    else
      hi = mid;
  }
  if (lo < link_row_[key.a + 1] && links_[lo].b == key.b) return lo;
  return links_.size();
}

std::uint64_t RoutingTable::link_load(const LinkKey& link) const {
  const std::size_t i = link_ordinal(link);
  if (i == links_.size())
    throw std::invalid_argument("RoutingTable::link_load: unknown link");
  return link_load_[i];
}

double RoutingTable::path_coverage(const std::vector<NodeId>& hosts,
                                   const std::vector<char>& via) const {
  if (via.size() != n_)
    throw std::invalid_argument("RoutingTable::path_coverage: via size");
  std::uint64_t covered = 0, total = 0;
  for (NodeId src : hosts)
    for (NodeId dst : hosts) {
      if (src == dst) continue;
      ++total;
      NodeId cur = src;
      while (cur != dst) {
        const NodeId nxt = next_[index(cur, dst)];
        if (nxt != dst && via[nxt]) {
          ++covered;
          break;
        }
        cur = nxt;
      }
    }
  return total == 0 ? 0.0
                    : static_cast<double>(covered) / static_cast<double>(total);
}

}  // namespace dq::graph
