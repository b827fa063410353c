// Hand-built test graphs: undirected edge lists expanded into the directed
// link records Topology::from_links takes, and a check of a topology's
// in-link index against its out-rows.
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

/// Whether every in-link row of `topo` ascends strictly by sender, each
/// entry's id names the forward link from -> to inside the sender's
/// out-row, and the rows together hold every link once.
inline bool in_links_mirror_out_links(const topology::Topology& topo) {
  std::size_t total = 0;
  for (NodeId to = 0; to < topo.num_nodes(); ++to) {
    const auto row = topo.in_links(to);
    for (std::size_t i = 0; i < row.size(); ++i) {
      const topology::InLink& in = row[i];
      if (i > 0 && row[i - 1].from >= in.from) return false;
      if (in.from >= topo.num_nodes() || in.id >= topo.num_links()) {
        return false;
      }
      const auto out = topo.neighbors(in.from);
      const topology::Link* link = &topo.link(in.id);
      if (link < out.data() || link >= out.data() + out.size() ||
          link->to != to) {
        return false;
      }
    }
    total += row.size();
  }
  return total == topo.num_links();
}

}  // namespace ldcf::test_support
