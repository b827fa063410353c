// Hand-built test graphs: undirected edge lists expanded into the directed
// link records Topology::from_links takes.
#pragma once

#include <initializer_list>
#include <vector>

#include "ldcf/topology/topology.hpp"

namespace ldcf::test_support {

/// One undirected edge a <-> b with the same PRR both ways.
struct Edge {
  NodeId a;
  NodeId b;
  double prr;
};

/// Both directed records of every edge.
inline std::vector<topology::LinkRecord> both_ways(
    std::initializer_list<Edge> edges) {
  std::vector<topology::LinkRecord> links;
  for (const Edge& e : edges) {
    links.push_back({e.a, e.b, e.prr});
    links.push_back({e.b, e.a, e.prr});
  }
  return links;
}

/// `nodes` nodes at the origin joined by the given undirected edges.
inline topology::Topology undirected(std::size_t nodes,
                                     std::initializer_list<Edge> edges) {
  return topology::Topology::from_links(
      std::vector<topology::Point2D>(nodes), both_ways(edges));
}

}  // namespace ldcf::test_support
