#include "ldcf/sim/channel.hpp"

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"
#include "ldcf/topology/topology.hpp"
#include "support/graphs.hpp"
#include "support/intents.hpp"

namespace ldcf::sim {
namespace {

using test_support::unicast;
using topology::Topology;

/// 0 -- 1 -- 2 -- 3 chain plus a 0--2 shortcut, all perfect links.
Topology chain4() {
  Topology topo = test_support::undirected(
      4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {0, 2, 1.0}});
  return topo;
}

TEST(Channel, PerfectLinkDelivers) {
  const Topology topo = chain4();
  Rng rng(1);
  const std::vector<TxIntent> intents{unicast(topo, 0, 1, 0)};
  const auto res =
      resolve_slot(topo, intents, {1}, ChannelConfig{true, false}, rng);
  ASSERT_EQ(res.results.size(), 1u);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kDelivered);
}

TEST(Channel, LossyLinkMatchesPrrStatistically) {
  Topology topo = test_support::undirected(2, {{0, 1, 0.3}});
  Rng rng(7);
  int delivered = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    const std::vector<TxIntent> intents{unicast(topo, 0, 1, 0)};
    const auto res =
        resolve_slot(topo, intents, {1}, ChannelConfig{true, false}, rng);
    if (res.results[0].outcome == TxOutcome::kDelivered) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, 0.3, 0.02);
}

TEST(Channel, ConcurrentTransmissionsToSameReceiverCollide) {
  const Topology topo = chain4();
  Rng rng(2);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  const auto res =
      resolve_slot(topo, intents, {2}, ChannelConfig{true, false}, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kCollision);
  EXPECT_EQ(res.results[1].outcome, TxOutcome::kCollision);
}

TEST(Channel, OracleModeIgnoresCollisions) {
  const Topology topo = chain4();
  Rng rng(2);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  const auto res =
      resolve_slot(topo, intents, {2}, ChannelConfig{false, false}, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kDelivered);
  EXPECT_EQ(res.results[1].outcome, TxOutcome::kDelivered);
}

TEST(Channel, TransmittingReceiverIsBusy) {
  const Topology topo = chain4();
  Rng rng(3);
  // 1 transmits to 2 while 0 transmits to 1: the copy to 1 is lost to
  // semi-duplex.
  const std::vector<TxIntent> intents{unicast(topo, 1, 2, 0),
                                      unicast(topo, 0, 1, 0)};
  const auto res =
      resolve_slot(topo, intents, {1, 2}, ChannelConfig{true, false}, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kDelivered);
  EXPECT_EQ(res.results[1].outcome, TxOutcome::kReceiverBusy);
}

TEST(Channel, DuplicateSenderIsRejected) {
  const Topology topo = chain4();
  Rng rng(4);
  const std::vector<TxIntent> intents{unicast(topo, 0, 1, 0),
                                      unicast(topo, 0, 2, 0)};
  EXPECT_THROW(
      (void)resolve_slot(topo, intents, {1, 2}, ChannelConfig{true, false}, rng),
      ::ldcf::InternalError);
}

TEST(Channel, UnicastOverAnotherReceiversLinkIsRejected) {
  // The PRR is read through the intent's link id, so an id that points at
  // another receiver must not be resolved silently.
  const Topology topo = chain4();
  Rng rng(4);
  TxIntent intent = unicast(topo, 0, 1, 0);
  intent.link = unicast(topo, 0, 2, 0).link;
  EXPECT_THROW((void)resolve_slot(topo, {intent}, {1},
                                  ChannelConfig{true, false}, rng),
               ::ldcf::InternalError);
}

TEST(Channel, OverhearingDeliversToBystander) {
  const Topology topo = chain4();
  Rng rng(5);
  // 1 -> 2; node 0 is active, idle, adjacent to 1: it must overhear (all
  // links perfect).
  const std::vector<TxIntent> intents{unicast(topo, 1, 2, 7)};
  const auto res =
      resolve_slot(topo, intents, {0, 2}, ChannelConfig{true, true}, rng);
  ASSERT_EQ(res.overhears.size(), 1u);
  EXPECT_EQ(res.overhears[0].listener, 0u);
  EXPECT_EQ(res.overhears[0].sender, 1u);
  EXPECT_EQ(res.overhears[0].packet, 7u);
}

TEST(Channel, NoOverhearingWhenDisabled) {
  const Topology topo = chain4();
  Rng rng(5);
  const std::vector<TxIntent> intents{unicast(topo, 1, 2, 7)};
  const auto res =
      resolve_slot(topo, intents, {0, 2}, ChannelConfig{true, false}, rng);
  EXPECT_TRUE(res.overhears.empty());
}

TEST(Channel, OverhearCollisionWhenTwoAudible) {
  // Node 1 hears both 0 and 2 transmitting (to other receivers): the
  // overhear attempt is itself a collision, nothing decoded.
  Topology topo = test_support::undirected(
      5, {{0, 1, 1.0}, {2, 1, 1.0}, {0, 3, 1.0}, {2, 4, 1.0}});
  Rng rng(6);
  const std::vector<TxIntent> intents{unicast(topo, 0, 3, 0),
                                      unicast(topo, 2, 4, 0)};
  const auto res =
      resolve_slot(topo, intents, {1, 3, 4}, ChannelConfig{true, true}, rng);
  EXPECT_TRUE(res.overhears.empty());
}

TEST(Channel, AddresseesAndTransmittersDoNotOverhear) {
  const Topology topo = chain4();
  Rng rng(8);
  // 0 -> 1 and 2 -> 3: node 2 transmits so it cannot overhear 0 -> 1 even
  // though it is adjacent to... (2 is adjacent to 1, not 0; use 1's tx).
  const std::vector<TxIntent> intents{unicast(topo, 1, 0, 0),
                                      unicast(topo, 2, 3, 1)};
  const auto res =
      resolve_slot(topo, intents, {0, 3}, ChannelConfig{true, true}, rng);
  for (const auto& ov : res.overhears) {
    EXPECT_NE(ov.listener, 0u);  // addressee of 1->0.
    EXPECT_NE(ov.listener, 2u);  // transmitter.
    EXPECT_NE(ov.listener, 3u);  // addressee of 2->3.
  }
}

TEST(Channel, CaptureLetsTheDominantTransmissionSurvive) {
  // 0 -> 2 over a strong link, 3 -> 2 over a weak one: with capture enabled
  // and enough quality separation, the strong copy decodes.
  Topology topo = test_support::undirected(4, {{0, 2, 0.95}, {3, 2, 0.2}});
  Rng rng(13);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  ChannelConfig config{true, false, 1.0, /*capture_ratio=*/2.0};
  int strong_delivered = 0;
  for (int i = 0; i < 500; ++i) {
    const auto res = resolve_slot(topo, intents, {2}, config, rng);
    EXPECT_EQ(res.results[1].outcome, TxOutcome::kCollision);  // weak loses.
    if (res.results[0].outcome == TxOutcome::kDelivered) ++strong_delivered;
  }
  EXPECT_GT(strong_delivered, 400);  // ~0.95 of 500.
}

TEST(Channel, NoCaptureWhenLinksAreComparable) {
  Topology topo = test_support::undirected(4, {{0, 2, 0.8}, {3, 2, 0.7}});
  Rng rng(14);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  const ChannelConfig config{true, false, 1.0, /*capture_ratio=*/2.0};
  const auto res = resolve_slot(topo, intents, {2}, config, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kCollision);
  EXPECT_EQ(res.results[1].outcome, TxOutcome::kCollision);
}

TEST(Channel, CaptureDisabledByDefault) {
  Topology topo = test_support::undirected(4, {{0, 2, 0.99}, {3, 2, 0.1}});
  Rng rng(15);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  const ChannelConfig config{true, false};
  const auto res = resolve_slot(topo, intents, {2}, config, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kCollision);
}

TEST(Channel, PrrScaleDegradesDelivery) {
  Topology topo = test_support::undirected(2, {{0, 1, 1.0}});
  Rng rng(16);
  ChannelConfig config{true, false, /*prr_scale=*/0.3};
  int delivered = 0;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    const std::vector<TxIntent> intents{unicast(topo, 0, 1, 0)};
    const auto res = resolve_slot(topo, intents, {1}, config, rng);
    if (res.results[0].outcome == TxOutcome::kDelivered) ++delivered;
  }
  EXPECT_NEAR(static_cast<double>(delivered) / kTrials, 0.3, 0.03);
}

TEST(Channel, CaptureTieOnEqualPrrCollides) {
  // Equal-strength contenders: best/second PRR tie, so best >= ratio*second
  // fails for any ratio > 1 and the overlap stays destructive.
  Topology topo = test_support::undirected(4, {{0, 2, 0.8}, {3, 2, 0.8}});
  Rng rng(17);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  const ChannelConfig config{true, false, 1.0, /*capture_ratio=*/2.0};
  const auto res = resolve_slot(topo, intents, {2}, config, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kCollision);
  EXPECT_EQ(res.results[1].outcome, TxOutcome::kCollision);
}

TEST(Channel, CaptureRatioOneLetsFirstMaxPrrWin) {
  // capture_ratio = 1.0 degenerates to "any strictly-first maximum wins":
  // even an exact tie satisfies best >= 1.0 * second, and the first intent
  // holding the maximum (strict-greater updates) is the one captured.
  Topology topo = test_support::undirected(4, {{0, 2, 0.8}, {3, 2, 0.8}});
  Rng rng(18);
  const std::vector<TxIntent> intents{unicast(topo, 0, 2, 0),
                                      unicast(topo, 3, 2, 1)};
  const ChannelConfig config{true, false, 1.0, /*capture_ratio=*/1.0};
  int first_delivered = 0;
  for (int i = 0; i < 500; ++i) {
    const auto res = resolve_slot(topo, intents, {2}, config, rng);
    EXPECT_EQ(res.results[1].outcome, TxOutcome::kCollision);
    if (res.results[0].outcome == TxOutcome::kDelivered) ++first_delivered;
  }
  EXPECT_GT(first_delivered, 350);  // ~0.8 of 500.
}

TEST(Channel, AudibleBroadcastDefeatsCapturedUnicast) {
  // A unicast that would capture its receiver still collides when a
  // broadcast is audible there: capture only settles the unicast overlap,
  // broadcast interference remains destructive.
  Topology topo = test_support::undirected(
      4, {{0, 2, 0.95}, {3, 2, 0.2}, {1, 2, 0.9}});
  Rng rng(19);
  const std::vector<TxIntent> intents{
      unicast(topo, 0, 2, 0), unicast(topo, 3, 2, 1), {1, kNoNode, 2}};
  const ChannelConfig config{true, false, 1.0, /*capture_ratio=*/2.0};
  const auto res = resolve_slot(topo, intents, {2}, config, rng);
  EXPECT_EQ(res.results[0].outcome, TxOutcome::kCollision);
  EXPECT_EQ(res.results[1].outcome, TxOutcome::kCollision);
  EXPECT_EQ(res.results[2].outcome, TxOutcome::kBroadcast);
}

TEST(Channel, ReusedChannelMatchesFreshResolvesAcrossSlots) {
  // A long-lived Channel recycles its scratch between slots; the outcome
  // stream must be identical to constructing a fresh channel per slot.
  const Topology topo = chain4();
  const ChannelConfig config{true, true, 1.0, /*capture_ratio=*/2.0};
  const std::vector<std::vector<TxIntent>> slots{
      {unicast(topo, 0, 2, 0), unicast(topo, 3, 2, 1)},  // contested.
      {unicast(topo, 1, 2, 0)},                          // clean unicast.
      {{0, kNoNode, 1}},                // broadcast.
      {},                               // idle.
      {unicast(topo, 2, 1, 1), unicast(topo, 0, 1, 2)},  // contested again.
  };
  const std::vector<NodeId> active{0, 1, 2, 3};

  Channel reused(topo);
  Rng rng_reused(23);
  Rng rng_fresh(23);
  for (const auto& intents : slots) {
    SlotResolution from_reused;
    reused.resolve(intents, active, /*slot=*/0, config, rng_reused,
                   from_reused);
    const SlotResolution from_fresh =
        resolve_slot(topo, intents, active, config, rng_fresh);
    ASSERT_EQ(from_reused.results.size(), from_fresh.results.size());
    for (std::size_t i = 0; i < from_fresh.results.size(); ++i) {
      EXPECT_EQ(from_reused.results[i].outcome, from_fresh.results[i].outcome);
    }
    ASSERT_EQ(from_reused.overhears.size(), from_fresh.overhears.size());
    for (std::size_t i = 0; i < from_fresh.overhears.size(); ++i) {
      EXPECT_EQ(from_reused.overhears[i].listener,
                from_fresh.overhears[i].listener);
      EXPECT_EQ(from_reused.overhears[i].sender,
                from_fresh.overhears[i].sender);
      EXPECT_EQ(from_reused.overhears[i].packet,
                from_fresh.overhears[i].packet);
    }
  }
}

TEST(Channel, EmptySlotIsEmpty) {
  const Topology topo = chain4();
  Rng rng(9);
  const auto res =
      resolve_slot(topo, {}, {0, 1, 2, 3}, ChannelConfig{true, true}, rng);
  EXPECT_TRUE(res.results.empty());
  EXPECT_TRUE(res.overhears.empty());
}

}  // namespace
}  // namespace ldcf::sim
