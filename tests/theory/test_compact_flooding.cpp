#include "ldcf/theory/compact_flooding.hpp"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"
#include "ldcf/theory/fdl.hpp"
#include "ldcf/theory/fwl.hpp"

namespace ldcf::theory {
namespace {

TEST(CompactFlooding, RejectsNonPowerOfTwoN) {
  EXPECT_THROW(run_compact_flooding(CompactRunConfig{3, 1, false}),
               InvalidArgument);
  EXPECT_THROW(run_compact_flooding(CompactRunConfig{0, 1, false}),
               InvalidArgument);
  EXPECT_THROW(run_compact_flooding(CompactRunConfig{4, 0, false}),
               InvalidArgument);
}

TEST(CompactFlooding, Fig3SinglePacket) {
  // Fig. 3 topology: N = 4, one packet covers everyone by compact slot 3.
  const auto result = run_compact_flooding(CompactRunConfig{4, 1, true});
  ASSERT_EQ(result.completion.size(), 1u);
  EXPECT_EQ(result.completion[0], 3u);
  EXPECT_EQ(result.total_slots, fdl_compact_full_duplex(4, 1));
}

TEST(CompactFlooding, Fig3TwoPackets) {
  // Fig. 3(b): both packets delivered everywhere by compact slot 4
  // (Lemma 3: M + m - 1 = 2 + 3 - 1).
  const auto result = run_compact_flooding(CompactRunConfig{4, 2, true});
  EXPECT_EQ(result.total_slots, 4u);
  EXPECT_EQ(result.completion[0], 3u);
  EXPECT_EQ(result.completion[1], 4u);
}

TEST(CompactFlooding, Lemma3AcrossSizes) {
  // FDL = M + m - 1 for every power-of-two network and packet count tried.
  for (std::uint64_t n : {1ULL, 2ULL, 4ULL, 8ULL, 16ULL, 32ULL, 64ULL,
                          128ULL, 256ULL}) {
    for (std::uint64_t big_m : {1ULL, 2ULL, 3ULL, 5ULL, 8ULL, 16ULL, 40ULL}) {
      const auto result =
          run_compact_flooding(CompactRunConfig{n, big_m, false});
      EXPECT_EQ(result.total_slots, fdl_compact_full_duplex(n, big_m))
          << "N=" << n << " M=" << big_m;
    }
  }
}

TEST(CompactFlooding, EveryPacketMeetsItsExpiredTime) {
  // The expired-time definition only works because Algorithm 1 delivers
  // packet p everywhere by compact slot K_p + m; verify that claim.
  for (std::uint64_t n : {4ULL, 16ULL, 64ULL, 256ULL}) {
    const std::uint64_t big_m = 3 * m_of(n);
    const auto result = run_compact_flooding(CompactRunConfig{n, big_m, false});
    for (PacketId p = 0; p < big_m; ++p) {
      EXPECT_LE(result.completion[p], expired_time(n, p))
          << "N=" << n << " p=" << p;
    }
  }
}

TEST(CompactFlooding, Table1WaitingsMatchObservedCompletions) {
  // Table I: packet p completes at compact slot K_p + W_p - (m - 1)... The
  // directly observable form is completion[p] = p + m (injection at p plus
  // m dissemination slots), which is exactly Lemma 3 applied per packet,
  // and completion deltas of 1 reflect full pipelining.
  const std::uint64_t n = 64;
  const std::uint64_t big_m = 20;
  const auto result = run_compact_flooding(CompactRunConfig{n, big_m, false});
  for (PacketId p = 0; p < big_m; ++p) {
    EXPECT_EQ(result.completion[p], p + m_of(n)) << "p=" << p;
  }
}

TEST(CompactFlooding, NoTransmissionOfExpiredPackets) {
  const std::uint64_t n = 16;
  const auto result = run_compact_flooding(CompactRunConfig{n, 10, true});
  for (const CompactEvent& ev : result.events) {
    EXPECT_LT(ev.slot, expired_time(n, ev.packet))
        << "expired packet " << ev.packet << " sent at slot " << ev.slot;
  }
}

TEST(CompactFlooding, UnicastOneTransmissionPerNodePerSlot) {
  const auto result = run_compact_flooding(CompactRunConfig{32, 12, true});
  std::set<std::pair<CompactSlot, NodeId>> senders;
  for (const CompactEvent& ev : result.events) {
    const bool inserted = senders.insert({ev.slot, ev.from}).second;
    EXPECT_TRUE(inserted) << "node " << ev.from << " sent twice in slot "
                          << ev.slot;
  }
}

TEST(CompactFlooding, TargetsFollowHypercubeRule) {
  const std::uint64_t n = 8;  // n = 3 dimensions.
  const auto result = run_compact_flooding(CompactRunConfig{n, 4, true});
  for (const CompactEvent& ev : result.events) {
    const std::uint64_t stride = 1ULL << (ev.slot % 3);
    NodeId expected = static_cast<NodeId>((stride + ev.from) % n);
    if (expected == 0) expected = static_cast<NodeId>(n);
    EXPECT_EQ(ev.to, expected);
  }
}

TEST(CompactFlooding, MatrixEvolutionEq2) {
  // Replaying S_p(c) through Eq. (2) reproduces the possession counts:
  // non-decreasing, ends at 1+N, grows by at most |X_p(c)| per slot.
  const CompactRunConfig config{16, 6, true};
  const auto result = run_compact_flooding(config);
  for (PacketId p = 0; p < config.num_packets; ++p) {
    const auto traj = possession_trajectory(result, config, p);
    ASSERT_FALSE(traj.empty());
    EXPECT_EQ(traj.back(), config.num_sensors + 1);
    for (std::size_t c = 0; c + 1 < traj.size(); ++c) {
      EXPECT_LE(traj[c], traj[c + 1]);
      EXPECT_LE(traj[c + 1], 2 * std::max<std::uint64_t>(traj[c], 1));
    }
  }
}

TEST(CompactFlooding, CriticalPathWaitsRespectTable1) {
  // Theorem 1 / Table I: the last copy of packet p experiences at most
  // W_p = m + min(p, m-1) waitings once type-2 (send+receive) slots on its
  // path are charged twice.
  for (std::uint64_t n : {4ULL, 16ULL, 64ULL, 256ULL}) {
    const std::uint64_t m = m_of(n);
    for (std::uint64_t big_m : {1ULL, 2ULL, 5ULL, 20ULL, 50ULL}) {
      const auto result =
          run_compact_flooding(CompactRunConfig{n, big_m, false});
      ASSERT_EQ(result.paths.size(), big_m);
      for (PacketId p = 0; p < big_m; ++p) {
        const auto& path = result.paths[p];
        EXPECT_GE(path.hops, 1u);
        EXPECT_LE(path.hops, m);
        EXPECT_LE(path.doubled_hops, path.hops);
        EXPECT_LE(path.waits, table1_waiting(n, big_m, p))
            << "N=" << n << " M=" << big_m << " p=" << p;
      }
    }
  }
}

TEST(CompactFlooding, LastPacketWaitsPlusQueueingMatchTheorem1Fwl) {
  // FWL = K_{M-1} + W_{M-1} with K_p = p prior injections; the measured
  // waits of the last packet must keep FWL within the Theorem 1 budget.
  for (std::uint64_t n : {4ULL, 16ULL, 64ULL, 256ULL}) {
    for (std::uint64_t big_m : {1ULL, 2ULL, 5ULL, 20ULL, 50ULL}) {
      const auto result =
          run_compact_flooding(CompactRunConfig{n, big_m, false});
      const std::uint64_t observed_fwl =
          (big_m - 1) + result.paths.back().waits;
      EXPECT_LE(observed_fwl, multi_packet_fwl(n, big_m))
          << "N=" << n << " M=" << big_m;
    }
  }
}

TEST(CompactFlooding, GlobalWeightedSlotsAreAnUpperEnvelope) {
  // The naive global serialization (every type-2 slot doubled) is always at
  // least the makespan and at most twice it.
  for (std::uint64_t n : {4ULL, 64ULL}) {
    for (std::uint64_t big_m : {1ULL, 10ULL, 30ULL}) {
      const auto result =
          run_compact_flooding(CompactRunConfig{n, big_m, false});
      EXPECT_GE(result.weighted_slots, result.total_slots);
      EXPECT_LE(result.weighted_slots, 2 * result.total_slots);
      EXPECT_EQ(result.weighted_slots,
                result.total_slots + result.type2_slots);
    }
  }
}

TEST(CompactFlooding, SingleSensorDegenerateCase) {
  // N = 1: source hands each packet straight to the only sensor.
  const auto result = run_compact_flooding(CompactRunConfig{1, 3, true});
  EXPECT_EQ(result.total_slots, fdl_compact_full_duplex(1, 3));
  for (const CompactEvent& ev : result.events) {
    EXPECT_EQ(ev.from, 0u);
    EXPECT_EQ(ev.to, 1u);
  }
}

TEST(SelectTransmission, PrefersMostRecentNonExpired) {
  const std::uint64_t n = 16;  // m = 5.
  // Packet 0 received long ago, packet 3 recently; 1 and 2 not held.
  const std::vector<CompactSlot> received_at{0, kNeverSlot, kNeverSlot, 4};
  EXPECT_EQ(select_transmission(received_at, 4, n), PacketId{3});
  // At slot 9, packet 3 expires (3 + 5 = 8 <= 9) and packet 0 expired long
  // ago: nothing to send.
  EXPECT_EQ(select_transmission(received_at, 9, n), kNoPacket);
}

TEST(SelectTransmission, TieBreaksTowardNewerPacket) {
  const std::uint64_t n = 64;
  std::vector<CompactSlot> received_at(6, kNeverSlot);
  received_at[2] = 3;
  received_at[5] = 3;
  EXPECT_EQ(select_transmission(received_at, 4, n), PacketId{5});
}

TEST(SelectTransmission, EmptyAndNilHoldings) {
  EXPECT_EQ(select_transmission({}, 0, 16), kNoPacket);
  const std::vector<CompactSlot> none(3, kNeverSlot);
  EXPECT_EQ(select_transmission(none, 0, 16), kNoPacket);
}

class CompactSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::uint64_t>> {
};

TEST_P(CompactSweep, PipelinesPerfectlyUnderFullDuplex) {
  const auto [n, big_m] = GetParam();
  const auto result = run_compact_flooding(CompactRunConfig{n, big_m, false});
  // Each consecutive packet completes exactly one slot after its predecessor
  // (full pipelining, the content of Lemma 3).
  for (PacketId p = 1; p < big_m; ++p) {
    EXPECT_EQ(result.completion[p], result.completion[p - 1] + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GridOfRuns, CompactSweep,
    ::testing::Combine(::testing::Values(2ULL, 8ULL, 32ULL, 128ULL),
                       ::testing::Values(2ULL, 7ULL, 19ULL)));

}  // namespace
}  // namespace ldcf::theory
