#include "ldcf/sim/metrics.hpp"

#include "ldcf/common/error.hpp"

#include <gtest/gtest.h>

namespace ldcf::sim {
namespace {

PacketRecord record(SlotIndex gen, SlotIndex first_tx, SlotIndex covered) {
  PacketRecord r;
  r.packet = 0;
  r.generated_at = gen;
  r.first_tx_at = first_tx;
  r.covered_at = covered;
  return r;
}

TEST(PacketRecord, DelayDecomposition) {
  const PacketRecord r = record(10, 25, 100);
  EXPECT_TRUE(r.covered());
  EXPECT_EQ(r.total_delay(), 90u);
  EXPECT_EQ(r.queueing_delay(), 15u);
  EXPECT_EQ(r.transmission_delay(), 75u);
  EXPECT_EQ(r.queueing_delay() + r.transmission_delay(), r.total_delay());
}

TEST(PacketRecord, UncoveredPacketHasZeroDelays) {
  PacketRecord r;
  r.generated_at = 5;
  EXPECT_FALSE(r.covered());
  EXPECT_EQ(r.total_delay(), 0u);
  EXPECT_EQ(r.queueing_delay(), 0u);
  EXPECT_EQ(r.transmission_delay(), 0u);
}

TEST(RunMetrics, MeansSkipUncoveredPackets) {
  RunMetrics m;
  m.packets.push_back(record(0, 10, 50));   // total 50, queue 10, tx 40.
  m.packets.push_back(record(0, 20, 100));  // total 100, queue 20, tx 80.
  PacketRecord uncovered;
  uncovered.generated_at = 0;
  m.packets.push_back(uncovered);
  EXPECT_DOUBLE_EQ(m.mean_total_delay(), 75.0);
  EXPECT_DOUBLE_EQ(m.mean_queueing_delay(), 15.0);
  EXPECT_DOUBLE_EQ(m.mean_transmission_delay(), 60.0);
  EXPECT_EQ(m.max_total_delay(), 100u);
}

TEST(RunMetrics, EmptyMetricsAreZero) {
  const RunMetrics m;
  EXPECT_DOUBLE_EQ(m.mean_total_delay(), 0.0);
  EXPECT_EQ(m.max_total_delay(), 0u);
}

TEST(RunMetrics, DelayQuantiles) {
  RunMetrics m;
  for (std::uint64_t d : {10ULL, 20ULL, 30ULL, 40ULL, 100ULL}) {
    m.packets.push_back(record(0, 1, d));
  }
  EXPECT_EQ(m.delay_quantile(0.0), 10u);
  EXPECT_EQ(m.delay_quantile(0.5), 30u);
  EXPECT_EQ(m.delay_quantile(1.0), 100u);
  EXPECT_THROW((void)m.delay_quantile(-0.1), ::ldcf::InvalidArgument);
  EXPECT_THROW((void)m.delay_quantile(1.5), ::ldcf::InvalidArgument);
  const RunMetrics empty;
  EXPECT_EQ(empty.delay_quantile(0.5), 0u);
}

TEST(RunMetrics, CoveredFraction) {
  RunMetrics m;
  m.packets.push_back(record(0, 1, 10));
  PacketRecord uncovered;
  uncovered.generated_at = 0;
  m.packets.push_back(uncovered);
  EXPECT_DOUBLE_EQ(m.covered_fraction(), 0.5);
  const RunMetrics empty;
  EXPECT_DOUBLE_EQ(empty.covered_fraction(), 0.0);
}

TEST(ChannelCounters, FailuresAreLossPlusCollisionPlusBusy) {
  ChannelCounters c;
  c.losses = 10;
  c.collisions = 7;
  c.receiver_busy = 3;
  c.delivered = 100;
  EXPECT_EQ(c.failures(), 20u);
}

TEST(ChannelCounters, RecordCountsEveryOutcomeOnce) {
  struct Case {
    TxOutcome outcome;
    bool duplicate;
    std::uint64_t ChannelCounters::*field;
  };
  const Case cases[] = {
      {TxOutcome::kDelivered, false, &ChannelCounters::delivered},
      {TxOutcome::kLostChannel, false, &ChannelCounters::losses},
      {TxOutcome::kCollision, false, &ChannelCounters::collisions},
      {TxOutcome::kReceiverBusy, false, &ChannelCounters::receiver_busy},
      {TxOutcome::kBroadcast, false, &ChannelCounters::broadcasts},
      {TxOutcome::kSyncMiss, false, &ChannelCounters::sync_misses},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.outcome));
    ChannelCounters counters;
    counters.record(c.outcome, c.duplicate);
    EXPECT_EQ(counters.attempts, 1u);
    EXPECT_EQ(counters.*c.field, 1u);
    // Nothing else moved: attempts plus the one outcome field.
    const std::uint64_t sum = counters.delivered + counters.duplicates +
                              counters.losses + counters.collisions +
                              counters.receiver_busy + counters.broadcasts +
                              counters.sync_misses +
                              counters.overhear_deliveries;
    EXPECT_EQ(sum, 1u);
  }
  // A duplicate counts only on a delivery.
  ChannelCounters dup;
  dup.record(TxOutcome::kDelivered, true);
  dup.record(TxOutcome::kCollision, true);
  EXPECT_EQ(dup.attempts, 2u);
  EXPECT_EQ(dup.delivered, 1u);
  EXPECT_EQ(dup.duplicates, 1u);
  EXPECT_EQ(dup.collisions, 1u);
  // failures() is the four delivered-nothing outcomes.
  ChannelCounters all;
  for (const Case& c : cases) all.record(c.outcome, false);
  EXPECT_EQ(all.attempts, 6u);
  EXPECT_EQ(all.failures(), 4u);
}

TEST(ChannelCounters, AddIsFieldwise) {
  ChannelCounters a;
  a.attempts = 1;
  a.delivered = 2;
  a.duplicates = 3;
  a.losses = 4;
  a.collisions = 5;
  a.receiver_busy = 6;
  a.broadcasts = 7;
  a.sync_misses = 8;
  a.overhear_deliveries = 9;
  ChannelCounters b = a;
  b.add(a);
  EXPECT_EQ(b.attempts, 2u);
  EXPECT_EQ(b.delivered, 4u);
  EXPECT_EQ(b.duplicates, 6u);
  EXPECT_EQ(b.losses, 8u);
  EXPECT_EQ(b.collisions, 10u);
  EXPECT_EQ(b.receiver_busy, 12u);
  EXPECT_EQ(b.broadcasts, 14u);
  EXPECT_EQ(b.sync_misses, 16u);
  EXPECT_EQ(b.overhear_deliveries, 18u);
  EXPECT_EQ(b.failures(), 2 * a.failures());
}

}  // namespace
}  // namespace ldcf::sim
