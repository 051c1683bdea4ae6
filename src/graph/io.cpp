#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stats/file.hpp"

namespace dq::graph {

namespace {

/// A node id: the whole field is an unsigned decimal (no sign).
bool parse_id(std::string_view field, std::uint64_t& id) {
  const char* const last = field.data() + field.size();
  const auto [end, ec] = std::from_chars(field.data(), last, id);
  return ec == std::errc{} && end == last;
}

}  // namespace

Graph parse_edge_list(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::unordered_map<std::uint64_t, NodeId> ids;
  Graph g;
  const auto intern = [&](std::uint64_t raw) {
    const auto [it, inserted] = ids.try_emplace(
        raw, static_cast<NodeId>(g.num_nodes()));
    if (inserted) g.add_node();
    return it->second;
  };

  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    // '#' starts a comment, whole-line or trailing.
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string field_a, field_b, extra;
    if (!(fields >> field_a)) continue;  // blank or comment
    if (fields >> field_b >> extra)
      throw std::invalid_argument(
          "parse_edge_list: trailing tokens on line " +
          std::to_string(line_number));
    std::uint64_t raw_a = 0, raw_b = 0;
    if (!parse_id(field_a, raw_a) || !parse_id(field_b, raw_b))
      throw std::invalid_argument(
          "parse_edge_list: malformed line " + std::to_string(line_number) +
          ": " + line);
    const NodeId a = intern(raw_a);
    const NodeId b = intern(raw_b);
    if (a == b) continue;           // self-loops: skip
    if (g.has_edge(a, b)) continue; // duplicates: skip
    g.add_edge(a, b);
  }
  return g;
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << "# " << g.num_nodes() << " nodes, " << g.num_edges()
     << " edges\n";
  for (NodeId a = 0; a < g.num_nodes(); ++a) {
    // Neighbor lists are unsorted; collect and sort for canonical output.
    std::vector<NodeId> peers(g.neighbors(a).begin(),
                              g.neighbors(a).end());
    std::sort(peers.begin(), peers.end());
    for (NodeId b : peers)
      if (a < b) os << a << ' ' << b << '\n';
  }
  return os.str();
}

Graph load_edge_list(const std::string& path) {
  return parse_edge_list(read_file(path));
}

void save_edge_list(const Graph& g, const std::string& path) {
  replace_file(path, to_edge_list(g));
}

}  // namespace dq::graph
