// Watchdog unit + integration tests: every invariant trips with the right
// diagnostic, progress events reset the budgets, and a healthy end-to-end
// run is never disturbed.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

sim::TxResult failed_tx() {
  sim::TxResult result;
  result.outcome = sim::TxOutcome::kLostChannel;
  return result;
}

TEST(Watchdog, SlotBudgetTripsAfterSilentSlots) {
  obs::WatchdogConfig config;
  config.stall_slot_budget = 10;
  obs::WatchdogObserver watchdog(config);
  // Failed transmissions are not progress, but the diagnostic counts them.
  for (int i = 0; i < 3; ++i) watchdog.on_tx_result(failed_tx(), 0);
  try {
    for (SlotIndex t = 0; t < 100; ++t) watchdog.on_slot_begin(t, {});
    FAIL() << "expected WatchdogError";
  } catch (const obs::WatchdogError& error) {
    EXPECT_EQ(error.diagnostic().invariant, "stall");
    EXPECT_EQ(error.diagnostic().slots_since_progress, 11u);
    EXPECT_EQ(error.diagnostic().slot, 10u);
    EXPECT_EQ(error.diagnostic().tx_attempts, 3u);
    EXPECT_EQ(error.diagnostic().tx_failures, 3u);
  }
}

TEST(Watchdog, ProgressEventsResetTheSlotBudget) {
  obs::WatchdogConfig config;
  config.stall_slot_budget = 10;
  obs::WatchdogObserver watchdog(config);
  for (SlotIndex t = 0; t < 100; ++t) {
    watchdog.on_slot_begin(t, {});
    if (t % 5 == 0) watchdog.on_generate(0, t);  // progress, budget resets.
  }
  SUCCEED();
}

TEST(Watchdog, CoverageMovingBackwardsTripsMonotonic) {
  obs::WatchdogObserver watchdog(obs::WatchdogConfig{});
  watchdog.on_packet_covered(0, 100);
  try {
    watchdog.on_packet_covered(1, 99);
    FAIL() << "expected WatchdogError";
  } catch (const obs::WatchdogError& error) {
    EXPECT_EQ(error.diagnostic().invariant, "monotonic");
    EXPECT_EQ(error.diagnostic().packets_covered, 1u);
  }
}

TEST(Watchdog, NegativeEnergyTripsRunEnd) {
  obs::WatchdogObserver watchdog(obs::WatchdogConfig{});
  sim::SimResult result;
  result.energy.per_node = {1.0, -0.5};
  EXPECT_THROW(watchdog.on_run_end(result), obs::WatchdogError);
}

TEST(Watchdog, HealthReportIsSchemaStampedJson) {
  obs::HealthDiagnostic diag;
  diag.invariant = "stall";
  diag.message = "no progress in 64 slots";
  diag.slot = 1234;
  diag.slots_since_progress = 64;
  diag.packets_generated = 12;
  std::ostringstream out;
  obs::write_health_report(out, diag);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\":\"ldcf.health.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"invariant\":\"stall\""), std::string::npos);
  EXPECT_NE(json.find("\"slot\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"slots_since_progress\":64"), std::string::npos);
  EXPECT_NE(json.find("\"packets_generated\":12"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

// A healthy run with sane budgets must complete untouched: the watchdog
// can only end runs, never change them.
TEST(Watchdog, HealthyRunPassesUnderTightScrutiny) {
  topology::ClusterConfig topo_config;
  topo_config.base.num_sensors = 40;
  topo_config.base.area_side_m = 220.0;
  topo_config.base.seed = 5;
  const topology::Topology topo = topology::make_clustered(topo_config);

  sim::SimConfig config;
  config.num_packets = 5;
  config.duty = DutyCycle{10};
  config.seed = 3;

  obs::WatchdogConfig watchdog_config;
  watchdog_config.stall_slot_budget = 1u << 20;
  obs::WatchdogObserver watchdog(watchdog_config);

  const auto proto = protocols::make_protocol("dbao");
  const sim::SimResult res =
      sim::run_simulation(topo, config, *proto, &watchdog);
  EXPECT_TRUE(res.metrics.all_covered);

  // The same run without the watchdog is bit-identical on the core counts.
  const auto again = protocols::make_protocol("dbao");
  const sim::SimResult bare = sim::run_simulation(topo, config, *again);
  EXPECT_EQ(bare.metrics.end_slot, res.metrics.end_slot);
  EXPECT_EQ(bare.metrics.channel.attempts, res.metrics.channel.attempts);
  EXPECT_DOUBLE_EQ(bare.energy.total, res.energy.total);
}

}  // namespace
