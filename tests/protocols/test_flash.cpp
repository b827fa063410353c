#include "ldcf/protocols/flash.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "support/graphs.hpp"

namespace ldcf::protocols {
namespace {

topology::Topology trace() {
  topology::ClusterConfig config;
  config.base.num_sensors = 60;
  config.base.area_side_m = 260.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 5;
  config.num_clusters = 6;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

sim::SimResult run_flash(const topology::Topology& topo,
                         std::uint32_t packets = 5, std::uint32_t period = 10,
                         double capture = 0.0) {
  sim::SimConfig config;
  config.num_packets = packets;
  config.duty = DutyCycle{period};
  config.seed = 13;
  config.max_slots = 3'000'000;
  config.capture_ratio = capture;
  FlashFlooding proto;
  return sim::run_simulation(topo, config, proto);
}

TEST(Flash, RegisteredAndNamed) {
  const auto proto = make_protocol("flash");
  EXPECT_EQ(proto->name(), "flash");
  EXPECT_FALSE(proto->collision_free_oracle());
}

TEST(Flash, CoversViaBroadcastsOnly) {
  const auto topo = trace();
  const auto res = run_flash(topo);
  EXPECT_TRUE(res.metrics.all_covered);
  // Every transmission is a broadcast; no unicast machinery fires.
  EXPECT_EQ(res.metrics.channel.broadcasts, res.metrics.channel.attempts);
  EXPECT_EQ(res.metrics.channel.delivered, 0u);
  EXPECT_EQ(res.metrics.channel.losses, 0u);
  // All copies arrive through the listener path.
  EXPECT_GT(res.metrics.channel.overhear_deliveries, 0u);
}

TEST(Flash, MuchSlowerThanUnicastFloodingAtLowDuty) {
  // The §III-B argument quantified: broadcasting into a mostly-asleep
  // neighborhood wastes nearly every transmission, so a tailored unicast
  // protocol beats it by a wide margin at low duty cycles.
  const auto topo = trace();
  const auto flash = run_flash(topo, 5, 20);
  sim::SimConfig config;
  config.num_packets = 5;
  config.duty = DutyCycle{20};
  config.seed = 13;
  const auto dbao_proto = make_protocol("dbao");
  const auto dbao = sim::run_simulation(topo, config, *dbao_proto);
  ASSERT_TRUE(flash.metrics.all_covered);
  ASSERT_TRUE(dbao.metrics.all_covered);
  EXPECT_GT(flash.metrics.mean_total_delay(),
            2.0 * dbao.metrics.mean_total_delay());
}

TEST(Flash, CaptureEffectSpeedsItUp) {
  // Flash flooding's signature mechanism [17]: with capture, concurrent
  // broadcasts stop annihilating each other and the flood accelerates.
  const auto topo = trace();
  const auto without = run_flash(topo, 5, 10, 0.0);
  const auto with = run_flash(topo, 5, 10, 1.5);
  ASSERT_TRUE(without.metrics.all_covered);
  ASSERT_TRUE(with.metrics.all_covered);
  EXPECT_LT(with.metrics.mean_total_delay(),
            without.metrics.mean_total_delay());
}

TEST(Flash, TrickleKeepsTheFloodAliveAfterBudgetExhaustion) {
  // A chain whose last hop almost never decodes: the relay's budget drains
  // long before node 2 hears it, so only the trickle re-advertisement can
  // complete the flood. Each (node, packet) arms its budget once, so every
  // broadcast beyond N x M x budget is a trickle one.
  const auto topo = test_support::undirected(3, {{0, 1, 1.0}, {1, 2, 0.02}});
  const std::uint32_t packets = 1;
  const std::uint32_t period = 10;
  const auto res = run_flash(topo, packets, period);
  ASSERT_TRUE(res.metrics.all_covered);
  const auto budget = static_cast<std::uint64_t>(
      std::ceil(FlashFlooding::kBudgetPeriods * period));
  EXPECT_GT(res.metrics.channel.broadcasts,
            topo.num_nodes() * packets * budget);
}

}  // namespace
}  // namespace ldcf::protocols
