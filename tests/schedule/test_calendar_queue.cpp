// Property tests for the compact-time calendar queue: PhaseCalendar and
// the idle-gap phase visitor the engine's fast-forward relies on, each
// checked against a brute-force slot-by-slot model, plus engine-level
// regressions proving no wake event is lost across gaps that span
// fault/burst edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ldcf/common/rng.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/schedule/calendar_queue.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;
using schedule::PhaseCalendar;

// Brute-force reference: scan slots one by one.
SlotIndex brute_next_busy(const std::vector<std::uint64_t>& counts,
                          SlotIndex from) {
  const auto period = static_cast<SlotIndex>(counts.size());
  for (SlotIndex t = from; t < from + period; ++t) {
    if (counts[t % period] != 0) return t;
  }
  return kNeverSlot;
}

TEST(PhaseCalendar, MatchesBruteForceUnderRandomMutations) {
  Rng rng(20260807);
  for (int trial = 0; trial < 50; ++trial) {
    const auto period = static_cast<std::uint32_t>(1 + rng.below(97));
    PhaseCalendar cal(period);
    std::vector<std::uint64_t> model(period, 0);
    for (int step = 0; step < 200; ++step) {
      const auto phase = static_cast<std::uint32_t>(rng.below(period));
      if (model[phase] > 0 && rng.bernoulli(0.4)) {
        cal.remove(phase);
        --model[phase];
      } else {
        cal.add(phase);
        ++model[phase];
      }
      // Probe from a handful of offsets, including wrap-around points just
      // below a period boundary.
      const SlotIndex probes[] = {0, rng.below(3 * period + 1),
                                  static_cast<SlotIndex>(period) - 1,
                                  7 * static_cast<SlotIndex>(period) +
                                      rng.below(period)};
      for (const SlotIndex from : probes) {
        ASSERT_EQ(cal.next_busy_slot(from), brute_next_busy(model, from))
            << "period=" << period << " from=" << from;
      }
    }
  }
}

TEST(PhaseCalendar, EmptyAndTotalAccounting) {
  PhaseCalendar cal(10);
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.next_busy_slot(123), kNeverSlot);
  cal.add(3, 2);
  cal.add(7);
  EXPECT_EQ(cal.total(), 3u);
  EXPECT_EQ(cal.next_busy_slot(0), 3u);
  EXPECT_EQ(cal.next_busy_slot(4), 7u);
  EXPECT_EQ(cal.next_busy_slot(8), 13u);  // wraps to phase 3.
  cal.remove(3, 2);
  EXPECT_EQ(cal.next_busy_slot(8), 17u);  // only phase 7 left.
  cal.remove(7);
  EXPECT_TRUE(cal.empty());
  EXPECT_EQ(cal.next_busy_slot(8), kNeverSlot);
}

TEST(PhaseCalendar, ForEachPhaseInMatchesASlotBySlotTally) {
  // Periods from always-on (T = 1) to the duty floor (T = 10000); gaps
  // shorter than, equal to and many times the period, from aligned and
  // unaligned starts. Every phase the range touches is visited exactly
  // once with its slot count, and nothing else is visited.
  const std::uint32_t periods[] = {1, 2, 3, 7, 16, 97, 1000, 9999, 10000};
  for (const std::uint32_t period : periods) {
    const SlotIndex t = period;
    const SlotIndex gaps[] = {1,         t / 2 + 1, t - 1, t,    t + 1,
                              2 * t - 1, 2 * t,     3 * t + t / 3, 7 * t};
    const SlotIndex froms[] = {0, t - 1, 5 * t, 5 * t + t / 2, 123457};
    for (const SlotIndex from : froms) {
      for (const SlotIndex gap : gaps) {
        std::vector<std::uint64_t> expect(period, 0);
        for (SlotIndex s = from; s < from + gap; ++s) ++expect[s % period];
        std::vector<std::uint64_t> got(period, 0);
        std::uint64_t visits = 0;
        schedule::for_each_phase_in(
            period, from, from + gap,
            [&](std::uint32_t phase, std::uint64_t count) {
              ASSERT_LT(phase, period);
              ASSERT_EQ(got[phase], 0u) << "phase visited twice";
              ASSERT_GT(count, 0u);
              got[phase] = count;
              ++visits;
            });
        ASSERT_EQ(got, expect) << "T=" << period << " [" << from << ", "
                               << from + gap << ")";
        EXPECT_EQ(visits, std::min<SlotIndex>(gap, t));
      }
    }
  }
  // Empty and reversed ranges visit nothing.
  std::uint64_t visits = 0;
  const auto count_visits = [&](std::uint32_t, std::uint64_t) { ++visits; };
  schedule::for_each_phase_in(5, 10, 10, count_visits);
  schedule::for_each_phase_in(5, 10, 9, count_visits);
  schedule::for_each_phase_in(10000, 0, 0, count_visits);
  EXPECT_EQ(visits, 0u);
}

// Engine-level regression: fast-forward gaps that span fault and burst
// edges must lose no wake event — dense and compact runs agree bit-for-bit
// on the listen/dormant tallies even when a node dies or a burst toggles
// inside what would otherwise be a skipped gap. packet_spacing stretches
// the generation schedule so long idle gaps actually occur around the
// injected edges.
TEST(FastForward, GapSpanningFaultAndBurstEdgesKeepsTallies) {
  topology::ClusterConfig cluster;
  cluster.base.num_sensors = 30;
  cluster.base.area_side_m = 200.0;
  cluster.base.seed = 11;
  cluster.num_clusters = 3;
  const topology::Topology topo = topology::make_clustered(cluster);

  sim::SimConfig config;
  config.num_packets = 4;
  config.packet_spacing = 400;  // long inter-generation idle stretches.
  config.duty = DutyCycle{25};
  config.seed = 42;
  config.max_slots = 50'000;
  config.perturbations.node_failures.push_back(sim::NodeFailure{7, 350});
  config.perturbations.node_failures.push_back(sim::NodeFailure{19, 1234});
  config.perturbations.burst = sim::LinkBurst{0.4, 300, 100, 500};

  sim::SimConfig dense = config;
  dense.compact_time = false;
  sim::SimConfig compact = config;
  compact.compact_time = true;

  for (const char* name : {"naive", "dbao", "opt"}) {
    SCOPED_TRACE(name);
    auto p1 = protocols::make_protocol(name);
    auto p2 = protocols::make_protocol(name);
    const sim::SimResult a = sim::SimEngine(topo, dense).run(*p1);
    const sim::SimResult b = sim::SimEngine(topo, compact).run(*p2);
    ASSERT_EQ(a.metrics.end_slot, b.metrics.end_slot);
    ASSERT_EQ(a.tally.active_slots, b.tally.active_slots);
    ASSERT_EQ(a.tally.dormant_slots, b.tally.dormant_slots);
    ASSERT_EQ(a.tally.tx_attempts, b.tally.tx_attempts);
    ASSERT_EQ(a.tally.receptions, b.tally.receptions);
    // Something must actually have been skipped for the test to bite.
    EXPECT_GT(b.profile.slots_skipped, 0u);
    EXPECT_EQ(a.profile.slots_skipped, 0u);
  }
}

}  // namespace
