#include "graph/routing.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

namespace dq::graph {

namespace {
constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();
}

LinkIndex::LinkIndex(const Graph& g) : row_(g.num_nodes() + 1, 0) {
  const std::size_t n = g.num_nodes();
  for (NodeId u = 0; u < n; ++u) row_[u + 1] = row_[u] + g.degree(u);
  ends_.reserve(g.num_edges());
  nbr_.resize(row_[n]);
  nbr_link_.resize(row_[n]);

  // Number each link as its smaller end's adjacency list reaches it and
  // file it under both ends.
  std::vector<std::size_t> fill(row_.begin(), row_.end() - 1);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b : g.neighbors(a)) {
      if (b < a) continue;
      const auto l = static_cast<std::uint32_t>(ends_.size());
      ends_.push_back({a, b});
      nbr_[fill[a]] = b;
      nbr_link_[fill[a]++] = l;
      nbr_[fill[b]] = a;
      nbr_link_[fill[b]++] = l;
    }

  // Sort each row by neighbour id, carrying the link numbers along.
  std::vector<std::pair<NodeId, std::uint32_t>> entries;
  for (NodeId u = 0; u < n; ++u) {
    entries.clear();
    for (std::size_t p = row_[u]; p < row_[u + 1]; ++p)
      entries.emplace_back(nbr_[p], nbr_link_[p]);
    std::sort(entries.begin(), entries.end());
    for (std::size_t p = row_[u], i = 0; p < row_[u + 1]; ++p, ++i) {
      nbr_[p] = entries[i].first;
      nbr_link_[p] = entries[i].second;
    }
  }
}

std::size_t LinkIndex::find(NodeId a, NodeId b) const noexcept {
  if (std::size_t{a} + 1 >= row_.size()) return size();
  const auto first = nbr_.begin() + row_[a];
  const auto last = nbr_.begin() + row_[a + 1];
  const auto it = std::lower_bound(first, last, b);
  return it != last && *it == b ? nbr_link_[it - nbr_.begin()] : size();
}

RoutingTable::RoutingTable(const Graph& g) : links_(g), n_(g.num_nodes()) {
  if (n_ == 0) throw std::invalid_argument("RoutingTable: empty graph");

  // Rows sorted by neighbor id, so the first neighbor one hop closer to
  // a destination is also the lowest-id one.
  const std::vector<std::size_t>& row = links_.offsets();
  const std::vector<NodeId>& adj = links_.neighbors();
  const std::vector<std::uint32_t>& link_of = links_.entry_links();
  link_load_.assign(links_.size(), 0);
  transit_.assign(n_, 0);
  first_.resize(n_ * n_);

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
      first_[static_cast<std::size_t>(u) * n_ + dst] = link_of[p];
      subtree[adj[p]] += subtree[u];
      link_load_[link_of[p]] += subtree[u];
      transit_[u] += subtree[u] - 1;
    }
  }
  total_load_ = 0;
  for (std::uint64_t l : link_load_) total_load_ += l;
}

double RoutingTable::path_coverage(const std::vector<NodeId>& hosts,
                                   const std::vector<char>& via) const {
  if (via.size() != n_)
    throw std::invalid_argument("RoutingTable::path_coverage: via size");
  for (NodeId h : hosts)
    if (h >= n_) throw std::out_of_range("RoutingTable::path_coverage: host");
  std::uint64_t covered = 0, total = 0;
  for (NodeId src : hosts)
    for (NodeId dst : hosts) {
      if (src == dst) continue;
      ++total;
      NodeId cur = src;
      while (cur != dst) {
        const NodeId nxt = links_.other_end(first_link(cur, dst), cur);
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
