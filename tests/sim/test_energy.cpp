#include "ldcf/sim/energy.hpp"

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"

namespace ldcf::sim {
namespace {

ActivityTally tally2() {
  ActivityTally t;
  t.active_slots = {10, 20};
  t.dormant_slots = {90, 80};
  t.tx_attempts = {5, 0};
  t.receptions = {0, 5};
  return t;
}

TEST(Energy, ComputeAddsAllComponents) {
  EnergyModel model;
  model.listen_cost = 1.0;
  model.sleep_cost = 0.0;
  model.tx_cost = 2.0;
  model.rx_cost = 1.0;
  const EnergyReport report = compute_energy(tally2(), model);
  ASSERT_EQ(report.per_node.size(), 2u);
  EXPECT_DOUBLE_EQ(report.per_node[0], 10.0 + 10.0);  // listen + tx.
  EXPECT_DOUBLE_EQ(report.per_node[1], 20.0 + 5.0);   // listen + rx.
  EXPECT_DOUBLE_EQ(report.total, 45.0);
  EXPECT_DOUBLE_EQ(report.max_node, 25.0);
}

TEST(Energy, MismatchedTallyThrows) {
  ActivityTally t = tally2();
  t.receptions.pop_back();
  EXPECT_THROW((void)compute_energy(t, EnergyModel{}), InvalidArgument);
}

TEST(Energy, LifetimeInverselyProportionalToDraw) {
  EnergyModel model;
  model.battery_capacity = 1000.0;
  model.sleep_cost = 0.0;
  const double life = estimate_lifetime_slots(tally2(), model, 100);
  // Hottest node draws 25/100 charge per slot with defaults adjusted:
  // listen 20*1 + rx 5*1 = 25 over 100 slots.
  EXPECT_NEAR(life, 1000.0 / 0.25, 1e-6);
  EXPECT_THROW((void)estimate_lifetime_slots(tally2(), model, 0),
               InvalidArgument);
}

TEST(Energy, IdleLifetimeScalesRoughlyLinearlyWithPeriod) {
  // The paper's §V-C2 observation: lifetime ~ linear in T (for negligible
  // sleep cost), while delay grows superlinearly as duty shrinks.
  EnergyModel model;
  model.sleep_cost = 0.0;
  const double t5 = idle_lifetime_slots(DutyCycle{5}, model);
  const double t10 = idle_lifetime_slots(DutyCycle{10}, model);
  const double t50 = idle_lifetime_slots(DutyCycle{50}, model);
  EXPECT_NEAR(t10 / t5, 2.0, 1e-9);
  EXPECT_NEAR(t50 / t5, 10.0, 1e-9);
}

TEST(Energy, SleepCostCapsTheLifetimeGain) {
  // With a real (non-zero) sleep cost the linear gain saturates.
  EnergyModel model;
  model.sleep_cost = 0.01;
  const double t10 = idle_lifetime_slots(DutyCycle{10}, model);
  const double t1000 = idle_lifetime_slots(DutyCycle{1000}, model);
  EXPECT_LT(t1000 / t10, 100.0);  // far from the 100x a zero-sleep model gives.
  EXPECT_LT(t1000, model.battery_capacity / model.sleep_cost);
}

}  // namespace
}  // namespace ldcf::sim
