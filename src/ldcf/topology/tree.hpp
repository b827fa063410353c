// Spanning trees over a topology.
//
// Opportunistic Flooding (Guo et al., the paper's OF comparator) forwards
// along an "optimal energy tree" — the spanning tree minimizing expected
// transmissions (ETX = 1/PRR per link) from the source — and gates
// opportunistic shortcuts by each node's expected delivery delay along that
// tree. This module builds such trees with Dijkstra and labels nodes with
// delay statistics (mean and variance of the tree delivery time in slots).
#pragma once

#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::topology {

/// A rooted spanning tree (or forest, if some nodes are unreachable).
struct Tree {
  NodeId root = 0;
  /// parent[v]; root and unreachable nodes have kNoNode.
  std::vector<NodeId> parent;
  /// Cumulative path cost from the root (ETX units); unreachable: +inf.
  std::vector<double> cost;

  [[nodiscard]] bool reached(NodeId v) const {
    return v == root || parent[v] != kNoNode;
  }
};

/// Dijkstra with per-link weight 1/PRR: minimizes expected transmissions,
/// which for uniform transmit power minimizes energy — the OF energy tree.
[[nodiscard]] Tree build_etx_tree(const Topology& topo, NodeId root);

/// Dijkstra with per-link weight T/PRR: minimizes the expected duty-cycled
/// delivery delay (each retransmission waits a full period on average).
[[nodiscard]] Tree build_delay_tree(const Topology& topo, NodeId root,
                                    DutyCycle duty);

/// Per-node delay statistics along a tree under duty cycling: a link of
/// quality q needs Geometric(q) attempts, each costing one period T, so the
/// per-hop delay has mean T/q and variance T^2 (1-q)/q^2. Path statistics
/// add across hops (independent links).
struct DelayDistribution {
  std::vector<double> mean;      ///< slots; +inf when unreachable.
  std::vector<double> variance;  ///< slots^2; +inf when unreachable.

  /// Gaussian-approximate quantile of node v's delivery delay:
  /// mean + z * stddev. OF uses this to decide whether an opportunistic
  /// shortcut beats the tree with the required confidence.
  [[nodiscard]] double quantile(NodeId v, double z) const;
};

[[nodiscard]] DelayDistribution tree_delay_distribution(const Topology& topo,
                                                        const Tree& tree,
                                                        DutyCycle duty);

}  // namespace ldcf::topology
