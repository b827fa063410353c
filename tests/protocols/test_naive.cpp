#include "ldcf/protocols/naive.hpp"

#include <gtest/gtest.h>

#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "support/graphs.hpp"

namespace ldcf::protocols {
namespace {

using topology::Topology;

TEST(Naive, FlagsAndName) {
  NaiveFlooding proto;
  EXPECT_EQ(proto.name(), "naive");
  EXPECT_FALSE(proto.wants_overhearing());
  EXPECT_FALSE(proto.collision_free_oracle());
}

TEST(Naive, SingleLinkBehavesExactly) {
  // On a two-node network naive flooding is optimal: one pending pair,
  // served at the receiver's wakeups until the ACK.
  Topology topo = test_support::undirected(2, {{0, 1, 1.0}});
  sim::SimConfig config;
  config.num_packets = 3;
  config.duty = DutyCycle{6};
  config.coverage_fraction = 1.0;
  config.seed = 4;
  NaiveFlooding proto;
  const auto res = sim::run_simulation(topo, config, proto);
  ASSERT_TRUE(res.metrics.all_covered);
  EXPECT_EQ(res.metrics.channel.attempts, 3u);  // one perfect tx per packet.
  EXPECT_EQ(res.metrics.channel.failures(), 0u);
}

TEST(Naive, FloodsEveryNeighborSoDuplicatesAbound) {
  // On a triangle, both relays push the packet at each other: the second
  // copy is a duplicate the protocol cannot avoid (no overhearing).
  Topology topo = test_support::undirected(
      3, {{0, 1, 1.0}, {0, 2, 1.0}, {1, 2, 1.0}});
  sim::SimConfig config;
  config.num_packets = 1;
  config.duty = DutyCycle{5};
  config.coverage_fraction = 1.0;
  config.seed = 2;
  NaiveFlooding proto;
  const auto res = sim::run_simulation(topo, config, proto);
  ASSERT_TRUE(res.metrics.all_covered);
  EXPECT_GE(res.metrics.channel.duplicates +
                res.metrics.channel.receiver_busy +
                res.metrics.channel.collisions,
            1u);
}

TEST(Naive, EventuallyCoversDespiteCollisionStorms) {
  topology::ClusterConfig cluster;
  cluster.base.num_sensors = 40;
  cluster.base.area_side_m = 200.0;
  cluster.base.radio.path_loss_exponent = 3.3;
  cluster.base.seed = 9;
  cluster.num_clusters = 4;
  const auto topo = topology::make_clustered(cluster);
  sim::SimConfig config;
  config.num_packets = 5;
  config.duty = DutyCycle{8};
  config.seed = 3;
  config.max_slots = 3'000'000;
  NaiveFlooding proto;
  const auto res = sim::run_simulation(topo, config, proto);
  EXPECT_TRUE(res.metrics.all_covered);
  // The strawman property: plenty of collisions, yet progress.
  EXPECT_GT(res.metrics.channel.collisions, 0u);
}

}  // namespace
}  // namespace ldcf::protocols
