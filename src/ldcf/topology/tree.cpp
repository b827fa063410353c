#include "ldcf/topology/tree.hpp"

#include <cmath>
#include <limits>
#include <queue>

#include "ldcf/common/error.hpp"

namespace ldcf::topology {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Generic Dijkstra; `link_weight(prr)` maps link quality to a cost.
template <typename WeightFn>
Tree dijkstra(const Topology& topo, NodeId root, WeightFn&& link_weight) {
  LDCF_REQUIRE(root < topo.num_nodes(), "root out of range");
  Tree tree;
  tree.root = root;
  tree.parent.assign(topo.num_nodes(), kNoNode);
  tree.cost.assign(topo.num_nodes(), kInf);
  tree.cost[root] = 0.0;

  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  heap.push({0.0, root});
  while (!heap.empty()) {
    const auto [cost, u] = heap.top();
    heap.pop();
    if (cost > tree.cost[u]) continue;  // stale entry.
    for (const Link& l : topo.neighbors(u)) {
      const double w = link_weight(l.prr);
      LDCF_CHECK(w > 0.0, "link weights must be positive");
      const double next = cost + w;
      if (next < tree.cost[l.to]) {
        tree.cost[l.to] = next;
        tree.parent[l.to] = u;
        heap.push({next, l.to});
      }
    }
  }
  return tree;
}

}  // namespace

Tree build_etx_tree(const Topology& topo, NodeId root) {
  return dijkstra(topo, root, [](double prr) { return 1.0 / prr; });
}

Tree build_delay_tree(const Topology& topo, NodeId root, DutyCycle duty) {
  const auto t = static_cast<double>(duty.period);
  return dijkstra(topo, root, [t](double prr) { return t / prr; });
}

DelayDistribution tree_delay_distribution(const Topology& topo,
                                          const Tree& tree, DutyCycle duty) {
  LDCF_REQUIRE(tree.parent.size() == topo.num_nodes(),
               "tree does not match topology");
  const auto t = static_cast<double>(duty.period);
  DelayDistribution dist;
  dist.mean.assign(topo.num_nodes(), kInf);
  dist.variance.assign(topo.num_nodes(), kInf);
  dist.mean[tree.root] = 0.0;
  dist.variance[tree.root] = 0.0;

  // Settle in cost order: repeatedly relax children whose parent is done.
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId v = 0; v < tree.parent.size(); ++v) {
      const NodeId p = tree.parent[v];
      if (p == kNoNode || dist.mean[v] != kInf) continue;
      if (dist.mean[p] == kInf) continue;
      const auto q_opt = topo.prr(p, v);
      LDCF_CHECK(q_opt.has_value(), "tree edge without topology link");
      const double q = *q_opt;
      dist.mean[v] = dist.mean[p] + t / q;
      dist.variance[v] = dist.variance[p] + t * t * (1.0 - q) / (q * q);
      changed = true;
    }
  }
  return dist;
}

double DelayDistribution::quantile(NodeId v, double z) const {
  LDCF_REQUIRE(v < mean.size(), "node out of range");
  if (std::isinf(mean[v])) return kInf;
  return mean[v] + z * std::sqrt(variance[v]);
}

}  // namespace ldcf::topology
