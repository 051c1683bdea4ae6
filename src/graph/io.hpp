// Graph serialization: whitespace-separated edge lists, the lingua
// franca of topology datasets (Oregon RouteViews AS graphs, CAIDA
// snapshots, BRITE exports). Lets the simulator run on real topologies
// instead of the built-in generators.
#pragma once

#include <string>

#include "graph/graph.hpp"

namespace dq::graph {

/// Parses an undirected edge list: one "u v" pair of unsigned decimal
/// ids per line; '#' starts a comment (whole-line or trailing), blank
/// lines are ignored. Node ids need not be dense —
/// they are remapped to [0, n) in first-appearance order. Duplicate
/// edges and self-loops in the input are skipped (real AS dumps contain
/// both). Throws std::invalid_argument on malformed lines.
Graph parse_edge_list(const std::string& text);

/// Renders the graph as a canonical edge list ("a b" with a < b, sorted).
std::string to_edge_list(const Graph& g);

/// File wrappers around the two above (dq::read_file and
/// dq::replace_file). Throw std::runtime_error on I/O failure.
Graph load_edge_list(const std::string& path);
void save_edge_list(const Graph& g, const std::string& path);

}  // namespace dq::graph
