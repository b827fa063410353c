// Unit tests for the shared pending-set machinery (PendingSetProtocol).
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/protocols/protocol.hpp"
#include "ldcf/sim/node_state.hpp"
#include "ldcf/topology/topology.hpp"
#include "protocol_diff.hpp"
#include "support/graphs.hpp"
#include "support/intents.hpp"

namespace ldcf::protocols {
namespace {

using test_support::unicast;
using topology::Point2D;
using topology::Topology;

/// Expose the protected machinery for testing.
class Harness final : public PendingSetProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "harness"; }
  void propose_transmissions(SlotIndex slot, std::span<const NodeId>,
                             std::vector<TxIntent>& out) override {
    const auto n = static_cast<NodeId>(ctx().topo->num_nodes());
    for (NodeId node = 0; node < n; ++node) {
      if (const auto intent = select_fcfs(node, slot)) out.push_back(*intent);
    }
  }

  /// Queued pairs at `node`: its pending entries summed over all phases.
  [[nodiscard]] std::size_t pending_count(NodeId node) const {
    std::size_t total = 0;
    for (std::uint32_t phase = 0; phase < ctx().duty.period; ++phase) {
      total += pending_at_phase(node, phase).size();
    }
    return total;
  }

  using PendingSetProtocol::node_has;
  using PendingSetProtocol::pend;
  using PendingSetProtocol::pending_at_phase;
  using PendingSetProtocol::pending_next_busy_slot;
  using PendingSetProtocol::pending_senders_at;
  using PendingSetProtocol::select_fcfs;
  using PendingSetProtocol::unpend;
};

/// Drives the protocol the way SimEngine does: a copy is marked in the
/// possession state first, then the callback reports it.
struct Fixture {
  Topology topo = Topology::from_links(
      std::vector<Point2D>{{0, 0}, {1, 0}, {2, 0}, {3, 0}},
      test_support::both_ways(
          {{0, 1, 0.9}, {0, 2, 0.5}, {1, 2, 1.0}, {2, 3, 0.8}}));
  schedule::ScheduleSet schedules{{0, 1, 2, 3}, DutyCycle{4}};
  sim::PossessionState possession{4, 4};
  SimContext ctx;
  Harness proto;

  void generate(PacketId packet, SlotIndex slot) {
    possession.deliver(ctx.source, packet);
    proto.on_generate(packet, slot);
  }
  /// Queue (packet -> neighbor) at `node` over their link.
  void pend(NodeId node, PacketId packet, NodeId neighbor) {
    proto.pend(node, packet, test::link_target(ctx, node, neighbor));
  }
  void deliver(NodeId receiver, PacketId packet, NodeId from, SlotIndex slot) {
    if (possession.deliver(receiver, packet)) {
      proto.on_delivery(receiver, packet, from, slot);
    }
  }

  Fixture() {
    ctx.topo = &topo;
    ctx.schedules = &schedules;
    ctx.duty = DutyCycle{4};
    ctx.num_packets = 4;
    ctx.seed = 99;
    ctx.possession = &possession;
    proto.initialize(ctx);
  }
};

TEST(PendingBase, GenerateEnqueuesAllNeighbors) {
  Fixture f;
  f.generate(0, 0);
  EXPECT_TRUE(f.proto.node_has(0, 0));
  EXPECT_EQ(f.proto.pending_count(0), 2u);  // neighbors 1 and 2.
}

TEST(PendingBase, DeliveryEnqueuesAllButSender) {
  Fixture f;
  f.deliver(2, 0, 0, 5);
  EXPECT_TRUE(f.proto.node_has(2, 0));
  // Neighbors of 2 are {0, 1, 3}; 0 was the sender.
  EXPECT_EQ(f.proto.pending_count(2), 2u);
}

TEST(PendingBase, PendIsIdempotent) {
  Fixture f;
  f.pend(0, 1, 1);
  f.pend(0, 1, 1);
  EXPECT_EQ(f.proto.pending_count(0), 1u);
  f.proto.unpend(0, 1, 1);
  EXPECT_EQ(f.proto.pending_count(0), 0u);
  f.proto.unpend(0, 1, 1);  // no-op.
}

TEST(PendingBase, EntriesLandInTheNeighborsPhaseBucket) {
  Fixture f;
  f.pend(0, 0, 1);  // node 1 wakes at phase 1.
  f.pend(0, 0, 2);  // node 2 wakes at phase 2.
  EXPECT_EQ(f.proto.pending_at_phase(0, 1).size(), 1u);
  EXPECT_EQ(f.proto.pending_at_phase(0, 2).size(), 1u);
  EXPECT_EQ(f.proto.pending_at_phase(0, 5).size(), 1u);  // 5 mod 4 == 1.
  EXPECT_TRUE(f.proto.pending_at_phase(0, 0).empty());
}

TEST(PendingBase, SelectFcfsPicksOldestPacketThenBestLink) {
  Fixture f;
  // Node 2's neighbors 1 (prr 1.0 via 2->1) and 0 (prr 0.5) share no phase,
  // so construct the tie at node 0: neighbors 1 (phase 1) and 2 (phase 2).
  f.pend(0, 2, 1);
  f.pend(0, 1, 1);  // older packet to the same phase-1 neighbor.
  const auto intent = f.proto.select_fcfs(0, 1);
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->packet, 1u);
  EXPECT_EQ(intent->receiver, 1u);
  // Nothing due at phase 0.
  EXPECT_FALSE(f.proto.select_fcfs(0, 0).has_value());
}

/// Node 0 with three neighbors that all wake at phase 1: 1 over a 0.5
/// link, 2 and 3 over equal 0.9 links.
struct SharedPhaseFixture {
  Topology topo = test_support::undirected(
      4, {{0, 1, 0.5}, {0, 2, 0.9}, {0, 3, 0.9}});
  schedule::ScheduleSet schedules{{0, 1, 1, 1}, DutyCycle{4}};
  sim::PossessionState possession{4, 4};
  SimContext ctx;
  Harness proto;

  void pend(NodeId node, PacketId packet, NodeId neighbor) {
    proto.pend(node, packet, test::link_target(ctx, node, neighbor));
  }

  SharedPhaseFixture() {
    ctx.topo = &topo;
    ctx.schedules = &schedules;
    ctx.duty = DutyCycle{4};
    ctx.num_packets = 4;
    ctx.seed = 99;
    ctx.possession = &possession;
    proto.initialize(ctx);
  }
};

TEST(PendingBase, SelectFcfsBreaksPacketTiesTowardTheBetterLink) {
  for (const bool better_first : {true, false}) {
    SCOPED_TRACE(better_first);
    SharedPhaseFixture f;
    f.pend(0, 0, better_first ? 2 : 1);
    f.pend(0, 0, better_first ? 1 : 2);
    const auto intent = f.proto.select_fcfs(0, 1);
    ASSERT_TRUE(intent.has_value());
    EXPECT_EQ(intent->receiver, 2u);  // 0.9 beats 0.5 in either pend order.
    EXPECT_EQ(intent->link, f.topo.link_id(0, 2));
  }
}

TEST(PendingBase, SelectFcfsBreaksFullTiesTowardTheFirstPended) {
  for (const NodeId first : {NodeId{2}, NodeId{3}}) {
    SCOPED_TRACE(first);
    SharedPhaseFixture f;
    f.pend(0, 0, first);
    f.pend(0, 0, first == 2 ? 3 : 2);  // same packet, same PRR.
    const auto intent = f.proto.select_fcfs(0, 1);
    ASSERT_TRUE(intent.has_value());
    EXPECT_EQ(intent->receiver, first);
  }
}

TEST(PendingBase, SilencedPairStillServesALaterPendedPacket) {
  SharedPhaseFixture f;
  f.pend(0, 0, 2);
  TxResult result;
  result.intent = unicast(f.topo, 0, 2, 0);
  result.outcome = TxOutcome::kCollision;
  // Repeated collisions widen the pair's window past the next wake-up.
  for (int round = 0; round < 6; ++round) f.proto.on_outcome(result, 1);
  const auto silenced = f.proto.pending_at_phase(0, 1);
  ASSERT_EQ(silenced.size(), 1u);
  ASSERT_GT(silenced[0].not_before, 5u);
  // A packet pended after the collision starts with not_before = 0, so it
  // is due at the receiver's next wake-up while the older one waits.
  f.pend(0, 1, 2);
  const auto intent = f.proto.select_fcfs(0, 5);
  ASSERT_TRUE(intent.has_value());
  EXPECT_EQ(intent->packet, 1u);
  EXPECT_EQ(intent->receiver, 2u);
}

TEST(PendingBase, AckRetiresEntry) {
  Fixture f;
  f.pend(0, 0, 1);
  TxResult result;
  result.intent = unicast(f.topo, 0, 1, 0);
  result.outcome = TxOutcome::kDelivered;
  f.proto.on_outcome(result, 1);
  EXPECT_EQ(f.proto.pending_count(0), 0u);
}

TEST(PendingBase, ChannelLossKeepsEntryEligible) {
  Fixture f;
  f.pend(0, 0, 1);
  TxResult result;
  result.intent = unicast(f.topo, 0, 1, 0);
  result.outcome = TxOutcome::kLostChannel;
  f.proto.on_outcome(result, 1);
  EXPECT_EQ(f.proto.pending_count(0), 1u);
  EXPECT_TRUE(f.proto.select_fcfs(0, 5).has_value());  // next period.
}

TEST(PendingBase, CollisionBacksOffTheWholePair) {
  Fixture f;
  f.pend(0, 0, 1);
  f.pend(0, 1, 1);  // second packet to the same receiver.
  TxResult result;
  result.intent = unicast(f.topo, 0, 1, 0);
  result.outcome = TxOutcome::kCollision;
  f.proto.on_outcome(result, 1);
  // Both packets to receiver 1 are silenced together: until the pair's
  // backoff expires, nothing is selectable — in particular packet 1 must
  // not jump in at the next wakeup while packet 0 waits.
  bool seen_eligible = false;
  for (SlotIndex t = 5; t < 5 + 64 * 4; t += 4) {
    const auto intent = f.proto.select_fcfs(0, t);
    if (!seen_eligible && intent.has_value()) {
      seen_eligible = true;
      // FCFS resumes with the oldest packet, not the newer one.
      EXPECT_EQ(intent->packet, 0u);
    } else if (!seen_eligible) {
      EXPECT_FALSE(intent.has_value());
    }
  }
  EXPECT_TRUE(seen_eligible);
}

TEST(PendingBase, BackoffWindowGrowsExponentially) {
  Fixture f;
  f.pend(0, 0, 1);
  TxResult result;
  result.intent = unicast(f.topo, 0, 1, 0);
  result.outcome = TxOutcome::kCollision;
  // Repeated collisions: the not_before horizon must be able to exceed the
  // initial 1-period window.
  SlotIndex max_gap = 0;
  SlotIndex slot = 1;
  for (int round = 0; round < 12; ++round) {
    f.proto.on_outcome(result, slot);
    SlotIndex next = slot;
    for (SlotIndex t = slot + 4; t < slot + 4 * 300; t += 4) {
      if (f.proto.select_fcfs(0, t).has_value()) {
        next = t;
        break;
      }
    }
    ASSERT_GT(next, slot);
    max_gap = std::max(max_gap, next - slot);
    slot = next;
  }
  EXPECT_GT(max_gap, 4u * 2u);  // beyond the initial one-period window.
}

TEST(PendingBase, NeedsThePossessionView) {
  Fixture f;
  f.ctx.possession = nullptr;
  Harness proto;
  EXPECT_THROW(proto.initialize(f.ctx), InvalidArgument);
}

// The sender index against brute force: after every step of a seeded random
// pend / unpend / delivery / outcome sequence, each phase's sender list is
// the ascending scan of non-empty buckets and the busy hint is the first
// slot whose phase has one. Retiring queued entries is the likeliest step,
// so buckets and whole phases drain again and again.
TEST(PendingBase, SenderIndexMatchesABruteForceScan) {
  constexpr std::uint32_t kPeriod = 5;
  constexpr NodeId kNodes = 7;
  constexpr std::uint32_t kPackets = 6;
  std::vector<topology::LinkRecord> records;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = u + 1; v < kNodes; ++v) {
      if ((u * 3 + v) % 4 == 0) continue;
      records.push_back({u, v, 0.2 + 0.1 * v});
      records.push_back({v, u, 0.2 + 0.1 * v});
    }
  }
  const Topology topo = Topology::from_links(
      std::vector<Point2D>{
          {0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}, {1, 2}},
      std::move(records));
  // Two nodes share a phase and phase 4 stays empty.
  const schedule::ScheduleSet schedules{{0, 1, 2, 3, 1, 2, 0},
                                        DutyCycle{kPeriod}};
  std::vector<std::pair<NodeId, NodeId>> links;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (const topology::Link& link : topo.neighbors(u)) {
      links.emplace_back(u, link.to);
    }
  }
  const TxOutcome outcomes[] = {TxOutcome::kDelivered, TxOutcome::kLostChannel,
                                TxOutcome::kCollision,
                                TxOutcome::kReceiverBusy};

  // The sequences must reach shared phases, hints that skip ahead, and
  // fully drained sets.
  std::size_t most_senders = 0;
  std::size_t skips = 0;
  std::size_t drained = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    sim::PossessionState possession(kNodes, kPackets);
    SimContext ctx;
    ctx.topo = &topo;
    ctx.schedules = &schedules;
    ctx.duty = DutyCycle{kPeriod};
    ctx.num_packets = kPackets;
    ctx.seed = seed;
    ctx.possession = &possession;
    Harness proto;
    proto.initialize(ctx);
    Rng rng(seed * 7919);
    for (int step = 0; step < 600; ++step) {
      const auto [node, neighbor] = links[rng.below(links.size())];
      const auto packet = static_cast<PacketId>(rng.below(kPackets));
      const auto slot = static_cast<SlotIndex>(step);
      TxResult result;
      result.intent = unicast(topo, node, neighbor, packet);
      result.outcome = outcomes[rng.below(4)];
      const std::uint64_t op = rng.below(8);
      if (op == 0) {
        proto.pend(node, packet, test::link_target(ctx, node, neighbor));
      } else if (op == 1) {
        proto.unpend(node, packet, neighbor);
      } else if (op == 2) {
        if (possession.deliver(neighbor, packet)) {
          proto.on_delivery(neighbor, packet, node, slot);
        }
      } else if (op == 3) {
        proto.on_outcome(result, slot);
      } else {
        // Retire a queued entry of `node`, by unpend or by an ACK.
        const auto& bucket = proto.pending_at_phase(node, rng.below(kPeriod));
        if (!bucket.empty()) {
          const PendingEntry e = bucket[rng.below(bucket.size())];
          result.intent = TxIntent{node, e.neighbor, e.packet, e.link};
          result.outcome = TxOutcome::kDelivered;
          if (op % 2 == 0) {
            proto.unpend(node, e.packet, e.neighbor);
          } else {
            proto.on_outcome(result, slot);
          }
        }
      }
      for (SlotIndex t = 0; t < 2 * kPeriod; ++t) {
        std::vector<NodeId> expected;
        for (NodeId n = 0; n < kNodes; ++n) {
          if (!proto.pending_at_phase(n, t).empty()) expected.push_back(n);
        }
        most_senders = std::max(most_senders, expected.size());
        const auto senders = proto.pending_senders_at(t);
        ASSERT_EQ(std::vector<NodeId>(senders.begin(), senders.end()),
                  expected)
            << "step " << step << " slot " << t;

        SlotIndex busy = kNeverSlot;
        for (SlotIndex u = t; u < t + kPeriod && busy == kNeverSlot; ++u) {
          for (NodeId n = 0; n < kNodes; ++n) {
            if (!proto.pending_at_phase(n, u).empty()) busy = u;
          }
        }
        ASSERT_EQ(proto.pending_next_busy_slot(t), busy)
            << "step " << step << " slot " << t;
        if (busy != t && busy != kNeverSlot) ++skips;
        if (busy == kNeverSlot) ++drained;
      }
    }
  }
  EXPECT_GE(most_senders, 2u);
  EXPECT_GT(skips, 0u);
  EXPECT_GT(drained, 0u);
}

}  // namespace
}  // namespace ldcf::protocols
