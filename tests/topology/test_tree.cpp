#include "ldcf/topology/tree.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/topology/generators.hpp"
#include "support/graphs.hpp"

namespace ldcf::topology {
namespace {

/// Diamond: 0 -> {1, 2} -> 3, with one cheap and one lossy branch.
Topology diamond() {
  Topology topo = test_support::undirected(4, {
      {0, 1, 1.0},   // ETX 1
      {0, 2, 0.25},  // ETX 4
      {1, 3, 0.5},   // ETX 2
      {2, 3, 1.0},   // ETX 1
  });
  return topo;
}

TEST(EtxTree, PicksMinimumExpectedTransmissions) {
  const Topology topo = diamond();
  const Tree tree = build_etx_tree(topo, 0);
  // Route to 3: via 1 costs 1+2 = 3; via 2 costs 4+1 = 5.
  EXPECT_EQ(tree.parent[3], 1u);
  EXPECT_DOUBLE_EQ(tree.cost[3], 3.0);
  EXPECT_EQ(tree.parent[1], 0u);
  EXPECT_EQ(tree.parent[2], 0u);
  EXPECT_EQ(tree.parent[0], kNoNode);
  EXPECT_TRUE(tree.reached(3));
}

TEST(EtxTree, UnreachableNodesStayUnparented) {
  Topology topo = test_support::undirected(3, {{0, 1, 0.5}});
  const Tree tree = build_etx_tree(topo, 0);
  EXPECT_FALSE(tree.reached(2));
  EXPECT_TRUE(std::isinf(tree.cost[2]));
}

TEST(EtxTree, RejectsBadRoot) {
  const Topology topo = diamond();
  EXPECT_THROW((void)build_etx_tree(topo, 9), InvalidArgument);
}

TEST(DelayTree, SameShapeAsEtxForUniformPeriod) {
  // T/q is a scalar multiple of 1/q, so the trees agree.
  const Topology topo = make_greenorbs_like(2);
  const Tree etx = build_etx_tree(topo, 0);
  const Tree delay = build_delay_tree(topo, 0, DutyCycle{20});
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_EQ(etx.parent[v], delay.parent[v]);
    if (etx.reached(v)) {
      EXPECT_NEAR(delay.cost[v], 20.0 * etx.cost[v], 1e-6);
    }
  }
}

TEST(TreeStructure, GreenOrbsTreeSpansReachableNodes) {
  const Topology topo = make_greenorbs_like(1);
  const Tree tree = build_etx_tree(topo, 0);
  std::size_t reached = 0;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (tree.reached(v)) ++reached;
  }
  EXPECT_EQ(reached, topo.reachable_count(0));
  // Tree edges must be actual links, and parents must be cheaper.
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (tree.parent[v] == kNoNode) continue;
    EXPECT_TRUE(topo.has_link(tree.parent[v], v));
    EXPECT_LT(tree.cost[tree.parent[v]], tree.cost[v]);
  }
}

TEST(DelayDistributionTest, PerHopMomentsAreGeometric) {
  const Topology topo = diamond();
  const Tree tree = build_etx_tree(topo, 0);
  const DutyCycle duty{10};
  const auto dist = tree_delay_distribution(topo, tree, duty);
  // Node 1 via a perfect link: mean = T, variance = 0.
  EXPECT_DOUBLE_EQ(dist.mean[1], 10.0);
  EXPECT_DOUBLE_EQ(dist.variance[1], 0.0);
  // Node 3 via 0->1 (q=1) then 1->3 (q=0.5):
  // mean = T + T/0.5 = 30, variance = 0 + T^2 * 0.5 / 0.25 = 200.
  EXPECT_DOUBLE_EQ(dist.mean[3], 30.0);
  EXPECT_DOUBLE_EQ(dist.variance[3], 200.0);
}

TEST(DelayDistributionTest, QuantileAddsScaledStddev) {
  const Topology topo = diamond();
  const Tree tree = build_etx_tree(topo, 0);
  const auto dist = tree_delay_distribution(topo, tree, DutyCycle{10});
  EXPECT_DOUBLE_EQ(dist.quantile(3, 0.0), dist.mean[3]);
  EXPECT_NEAR(dist.quantile(3, 2.0), 30.0 + 2.0 * std::sqrt(200.0), 1e-9);
  EXPECT_LT(dist.quantile(3, -1.0), dist.mean[3]);
}

TEST(DelayDistributionTest, UnreachableNodesAreInfinite) {
  Topology topo = test_support::undirected(3, {{0, 1, 0.5}});
  const Tree tree = build_etx_tree(topo, 0);
  const auto dist = tree_delay_distribution(topo, tree, DutyCycle{5});
  EXPECT_TRUE(std::isinf(dist.mean[2]));
  EXPECT_TRUE(std::isinf(dist.quantile(2, 1.0)));
}

TEST(DelayDistributionTest, MonteCarloMatchesGeometricModel) {
  // Per-hop delay model: Geometric(q) attempts, one period T each. Sample
  // the two-hop diamond path 0 -> 1 -> 3 (q = 1.0 then 0.5) and check the
  // predicted mean T + T/0.5 = 30 and variance 200 (T = 10).
  const Topology topo = diamond();
  const Tree tree = build_etx_tree(topo, 0);
  const DutyCycle duty{10};
  const auto dist = tree_delay_distribution(topo, tree, duty);
  ldcf::Rng rng(99);
  constexpr int kRuns = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kRuns; ++i) {
    double delay = 0.0;
    for (const double q : {1.0, 0.5}) {
      std::uint64_t attempts = 1;
      while (!rng.bernoulli(q)) ++attempts;
      delay += static_cast<double>(attempts) * duty.period;
    }
    sum += delay;
    sum_sq += delay * delay;
  }
  const double mean = sum / kRuns;
  const double var = sum_sq / kRuns - mean * mean;
  EXPECT_NEAR(mean, dist.mean[3], 0.02 * dist.mean[3]);
  EXPECT_NEAR(var, dist.variance[3], 0.10 * dist.variance[3]);
}

TEST(DelayDistributionTest, MeansIncreaseAlongTreePaths) {
  const Topology topo = make_greenorbs_like(5);
  const Tree tree = build_etx_tree(topo, 0);
  const auto dist = tree_delay_distribution(topo, tree, DutyCycle{20});
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (tree.parent[v] == kNoNode) continue;
    EXPECT_GT(dist.mean[v], dist.mean[tree.parent[v]]);
    EXPECT_GE(dist.variance[v], dist.variance[tree.parent[v]]);
  }
}

}  // namespace
}  // namespace ldcf::topology
