#include "ldcf/schedule/working_schedule.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"

namespace ldcf::schedule {
namespace {

/// Mean sleep latency by brute force: from every phase of the period, the
/// slots each node waits until it is active, averaged over nodes and
/// phases.
double mean_wait(const ScheduleSet& sched) {
  double total = 0.0;
  for (NodeId n = 0; n < sched.num_nodes(); ++n) {
    for (SlotIndex t = 0; t < sched.period(); ++t) {
      SlotIndex s = t;
      while (!sched.is_active(n, s)) ++s;
      total += static_cast<double>(s - t);
    }
  }
  return total / static_cast<double>(sched.num_nodes() * sched.period());
}

TEST(ScheduleSet, ExplicitSchedulesValidate) {
  const ScheduleSet sched({0, 3, 4}, DutyCycle{5});
  EXPECT_EQ(sched.num_nodes(), 3u);
  EXPECT_EQ(sched.period(), 5u);
  EXPECT_EQ(sched.active_slot(1), 3u);
  EXPECT_THROW(ScheduleSet({0, 5}, DutyCycle{5}), InvalidArgument);
  EXPECT_THROW(ScheduleSet(std::vector<std::uint32_t>{}, DutyCycle{5}),
               InvalidArgument);
}

TEST(ScheduleSet, IsActiveIsPeriodic) {
  const ScheduleSet sched({2}, DutyCycle{5});
  for (SlotIndex t = 0; t < 30; ++t) {
    EXPECT_EQ(sched.is_active(0, t), t % 5 == 2) << "t=" << t;
  }
}

TEST(ScheduleSet, ActiveNodesBucketsAreConsistent) {
  Rng rng(9);
  const ScheduleSet sched(50, DutyCycle{10}, rng);
  for (SlotIndex t = 0; t < 20; ++t) {
    const auto active = sched.active_nodes_at(t);
    for (const NodeId n : active) {
      EXPECT_TRUE(sched.is_active(n, t));
    }
    std::size_t count = 0;
    for (NodeId n = 0; n < 50; ++n) {
      if (sched.is_active(n, t)) ++count;
    }
    EXPECT_EQ(active.size(), count);
  }
}

TEST(ScheduleSet, EveryNodeActiveExactlyOncePerPeriod) {
  Rng rng(1);
  const ScheduleSet sched(100, DutyCycle{20}, rng);
  std::vector<int> activations(100, 0);
  for (SlotIndex t = 0; t < 20; ++t) {
    for (const NodeId n : sched.active_nodes_at(t)) ++activations[n];
  }
  for (const int a : activations) EXPECT_EQ(a, 1);
}

TEST(ScheduleSet, RandomSlotsAreRoughlyUniform) {
  Rng rng(77);
  const ScheduleSet sched(20000, DutyCycle{20}, rng);
  std::vector<int> hist(20, 0);
  for (NodeId n = 0; n < 20000; ++n) ++hist[sched.active_slot(n)];
  for (const int h : hist) {
    EXPECT_NEAR(h, 1000, 150);
  }
}

TEST(ScheduleSet, ExpectedSleepLatency) {
  Rng rng(5);
  EXPECT_DOUBLE_EQ(mean_wait(ScheduleSet(3, DutyCycle{20}, rng)), 9.5);
  EXPECT_DOUBLE_EQ(mean_wait(ScheduleSet(3, DutyCycle{1}, rng)), 0.0);
}

TEST(ScheduleSet, AlwaysOnDegenerateCase) {
  Rng rng(2);
  const ScheduleSet sched(5, DutyCycle{1}, rng);
  for (NodeId n = 0; n < 5; ++n) {
    for (SlotIndex t = 0; t < 10; ++t) {
      EXPECT_TRUE(sched.is_active(n, t));
    }
  }
  EXPECT_EQ(sched.active_nodes_at(0).size(), 5u);
}

TEST(ScheduleSet, OutOfRangeNodeThrows) {
  const ScheduleSet sched({0}, DutyCycle{5});
  EXPECT_THROW((void)sched.active_slot(1), InvalidArgument);
  EXPECT_THROW((void)sched.is_active(1, 0), InvalidArgument);
}

class SleepLatencyStats : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SleepLatencyStats, EmpiricalMeanMatchesClosedForm) {
  const std::uint32_t period = GetParam();
  Rng rng(42);
  const ScheduleSet sched(200, DutyCycle{period}, rng);
  // Averaging over all phases gives exactly (T/k - 1)/2 with k = 1 active
  // slot, for every node wherever its slot falls.
  const double k = 1.0;
  EXPECT_NEAR(mean_wait(sched), (static_cast<double>(period) / k - 1.0) / 2.0,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Periods, SleepLatencyStats,
                         ::testing::Values(1u, 2u, 5u, 20u, 50u));

TEST(MultiSlotSchedule, HasDistinctSlotsAndHigherDutyRatio) {
  Rng rng(4);
  const ScheduleSet sched(50, DutyCycle{20}, rng, 4);
  EXPECT_EQ(sched.slots_per_period(), 4u);
  EXPECT_DOUBLE_EQ(sched.duty_ratio(), 0.2);
  for (NodeId n = 0; n < 50; ++n) {
    const auto slots = sched.active_slots(n);
    ASSERT_EQ(slots.size(), 4u);
    for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
      EXPECT_LT(slots[i], slots[i + 1]);  // sorted, distinct.
    }
    EXPECT_EQ(sched.active_slot(n), slots.front());
  }
}

TEST(MultiSlotSchedule, IsActiveMatchesEachSlot) {
  Rng rng(8);
  const ScheduleSet sched(30, DutyCycle{10}, rng, 3);
  for (NodeId n = 0; n < 30; ++n) {
    std::size_t active_count = 0;
    for (SlotIndex t = 0; t < 10; ++t) {
      if (sched.is_active(n, t)) ++active_count;
    }
    EXPECT_EQ(active_count, 3u);
  }
}

TEST(MultiSlotSchedule, SleepLatencyShrinksWithMoreSlots) {
  Rng rng(2);
  const ScheduleSet one(10, DutyCycle{20}, rng, 1);
  const ScheduleSet four(10, DutyCycle{20}, rng, 4);
  EXPECT_GT(mean_wait(one), mean_wait(four));
}

TEST(MultiSlotSchedule, DenseSlotCountsStayDistinct) {
  // k near T exercises the Fisher-Yates path (rejection sampling would
  // approach the coupon-collector bound here). Every node must still get
  // exactly k distinct sorted slots.
  Rng rng(9);
  for (const std::uint32_t k : {19u, 20u}) {
    Rng local(rng.fork_seed());
    const ScheduleSet sched(40, DutyCycle{20}, local, k);
    for (NodeId n = 0; n < 40; ++n) {
      const auto slots = sched.active_slots(n);
      ASSERT_EQ(slots.size(), k);
      for (std::size_t i = 0; i + 1 < slots.size(); ++i) {
        EXPECT_LT(slots[i], slots[i + 1]);  // sorted and distinct.
      }
      EXPECT_LT(slots.back(), 20u);
    }
  }
}

TEST(MultiSlotSchedule, DenseSlotsAreRoughlyUniform) {
  // The Fisher-Yates path must not bias which slots get picked: with
  // k = 3 of T = 4 over many nodes, every slot should be excluded about
  // a quarter of the time.
  Rng rng(33);
  const std::size_t nodes = 4000;
  const ScheduleSet sched(nodes, DutyCycle{4}, rng, 3);
  std::vector<std::size_t> excluded(4, 0);
  for (NodeId n = 0; n < nodes; ++n) {
    const auto slots = sched.active_slots(n);
    for (std::uint32_t s = 0; s < 4; ++s) {
      if (!std::binary_search(slots.begin(), slots.end(), s)) ++excluded[s];
    }
  }
  for (const std::size_t count : excluded) {
    EXPECT_GT(count, nodes / 4 - nodes / 10);
    EXPECT_LT(count, nodes / 4 + nodes / 10);
  }
}

TEST(MultiSlotSchedule, RejectsBadSlotCounts) {
  Rng rng(1);
  EXPECT_THROW(ScheduleSet(5, DutyCycle{10}, rng, 0), InvalidArgument);
  EXPECT_THROW(ScheduleSet(5, DutyCycle{10}, rng, 11), InvalidArgument);
  // k == T degenerates to always-on and is allowed.
  const ScheduleSet full(5, DutyCycle{10}, rng, 10);
  for (SlotIndex t = 0; t < 10; ++t) {
    EXPECT_EQ(full.active_nodes_at(t).size(), 5u);
  }
}

}  // namespace
}  // namespace ldcf::schedule
