#include "ldcf/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ldcf/common/error.hpp"
#include "ldcf/topology/generators.hpp"
#include "support/graphs.hpp"
#include "support/intents.hpp"

namespace ldcf::sim {
namespace {

using topology::Topology;

/// Minimal well-behaved protocol: the source unicasts each packet to every
/// neighbor FCFS at the neighbor's wakeups; relays do the same. Essentially
/// naive flooding but implemented locally so the simulator can be tested
/// without the protocols module.
class MiniFlood final : public FloodingProtocol {
 public:
  [[nodiscard]] std::string_view name() const override { return "mini"; }

  void initialize(const SimContext& ctx) override {
    ctx_ = &ctx;
    has_.assign(ctx.topo->num_nodes(),
                std::vector<bool>(ctx.num_packets, false));
    pending_.assign(ctx.topo->num_nodes(), {});
  }

  void on_generate(PacketId p, SlotIndex) override { obtain(0, p, kNoNode); }

  void on_delivery(NodeId r, PacketId p, NodeId from, SlotIndex) override {
    obtain(r, p, from);
  }

  void on_outcome(const TxResult& result, SlotIndex) override {
    if (result.outcome == TxOutcome::kDelivered) {
      auto& pend = pending_[result.intent.sender];
      std::erase_if(pend, [&](const auto& pr) {
        return pr.first == result.intent.packet &&
               pr.second == result.intent.receiver;
      });
    }
  }

  void propose_transmissions(SlotIndex slot, std::span<const NodeId>,
                             std::vector<TxIntent>& out) override {
    for (NodeId node = 0; node < pending_.size(); ++node) {
      for (const auto& [packet, neighbor] : pending_[node]) {
        if (ctx_->schedules->is_active(neighbor, slot)) {
          out.push_back(
              test_support::unicast(*ctx_->topo, node, neighbor, packet));
          break;
        }
      }
    }
  }

 private:
  void obtain(NodeId node, PacketId p, NodeId from) {
    has_[node][p] = true;
    for (const topology::Link& link : ctx_->topo->neighbors(node)) {
      if (link.to != from) pending_[node].push_back({p, link.to});
    }
  }

  const SimContext* ctx_ = nullptr;
  std::vector<std::vector<bool>> has_;
  std::vector<std::vector<std::pair<PacketId, NodeId>>> pending_;
};

Topology pair_topology(double prr = 1.0) {
  Topology topo = test_support::undirected(2, {{0, 1, prr}});
  return topo;
}

TEST(Simulator, SinglePerfectLinkDelayIsSleepLatencyPlusOne) {
  const Topology topo = pair_topology();
  SimConfig config;
  config.num_packets = 1;
  config.duty = DutyCycle{10};
  config.coverage_fraction = 1.0;
  config.seed = 3;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  ASSERT_TRUE(res.metrics.all_covered);
  const auto& rec = res.metrics.packets[0];
  // Packet generated at slot 0; delivered at node 1's first active slot a;
  // covered_at = a + 1, so total delay = a + 1 in [1, T].
  EXPECT_GE(rec.total_delay(), 1u);
  EXPECT_LE(rec.total_delay(), 10u);
  EXPECT_EQ(rec.deliveries, 1u);
  EXPECT_EQ(res.metrics.channel.attempts, 1u);
  EXPECT_EQ(res.metrics.channel.failures(), 0u);
}

TEST(Simulator, DeterministicForSameSeed) {
  const Topology topo = topology::make_greenorbs_like(2);
  SimConfig config;
  config.num_packets = 5;
  config.seed = 11;
  // MiniFlood has no collision backoff, so cap the run: the test is about
  // determinism, not coverage.
  config.max_slots = 20000;
  MiniFlood a;
  MiniFlood b;
  const SimResult ra = run_simulation(topo, config, a);
  const SimResult rb = run_simulation(topo, config, b);
  EXPECT_EQ(ra.metrics.end_slot, rb.metrics.end_slot);
  EXPECT_EQ(ra.metrics.channel.attempts, rb.metrics.channel.attempts);
  EXPECT_EQ(ra.metrics.channel.losses, rb.metrics.channel.losses);
  for (PacketId p = 0; p < 5; ++p) {
    EXPECT_EQ(ra.metrics.packets[p].covered_at,
              rb.metrics.packets[p].covered_at);
  }
}

TEST(Simulator, DifferentSeedsDiffer) {
  const Topology topo = topology::make_greenorbs_like(2);
  SimConfig config;
  config.num_packets = 5;
  config.seed = 11;
  config.max_slots = 20000;
  MiniFlood a;
  const SimResult ra = run_simulation(topo, config, a);
  config.seed = 12;
  MiniFlood b;
  const SimResult rb = run_simulation(topo, config, b);
  EXPECT_NE(ra.metrics.channel.attempts, rb.metrics.channel.attempts);
}

TEST(Simulator, LossyLinkRetransmitsUntilDelivered) {
  const Topology topo = pair_topology(0.3);
  SimConfig config;
  config.num_packets = 1;
  config.duty = DutyCycle{5};
  config.coverage_fraction = 1.0;
  config.seed = 5;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  ASSERT_TRUE(res.metrics.all_covered);
  EXPECT_EQ(res.metrics.channel.attempts,
            res.metrics.channel.losses + 1);  // failures then one success.
}

TEST(Simulator, PacketSpacingDelaysGeneration) {
  const Topology topo = pair_topology();
  SimConfig config;
  config.num_packets = 3;
  config.packet_spacing = 7;
  config.coverage_fraction = 1.0;
  config.seed = 2;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  EXPECT_EQ(res.metrics.packets[0].generated_at, 0u);
  EXPECT_EQ(res.metrics.packets[1].generated_at, 7u);
  EXPECT_EQ(res.metrics.packets[2].generated_at, 14u);
}

TEST(Simulator, MaxSlotsStopsUncoverableRuns) {
  // Node 2 is unreachable but coverage_fraction = 1.0 demands it... the
  // engine clips the target to reachable sensors, so this still completes.
  Topology topo = test_support::undirected(3, {{0, 1, 1.0}});
  SimConfig config;
  config.num_packets = 1;
  config.coverage_fraction = 1.0;
  config.seed = 1;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  EXPECT_TRUE(res.metrics.all_covered);
  EXPECT_EQ(res.metrics.coverage_target, 1u);
  EXPECT_FALSE(res.metrics.truncated);
}

TEST(Simulator, TruncatedFlagSetWhenMaxSlotsHits) {
  const Topology topo = pair_topology(0.5);
  SimConfig config;
  config.num_packets = 10;
  config.duty = DutyCycle{10};
  config.coverage_fraction = 1.0;
  config.seed = 3;
  config.max_slots = 3;  // far too few for 10 packets at duty 10%.
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  EXPECT_FALSE(res.metrics.all_covered);
  EXPECT_TRUE(res.metrics.truncated);
  EXPECT_EQ(res.metrics.end_slot, 3u);
}

TEST(Simulator, CompletedRunIsNeverTruncated) {
  const Topology topo = pair_topology();
  SimConfig config;
  config.num_packets = 2;
  config.duty = DutyCycle{10};
  config.coverage_fraction = 1.0;
  config.seed = 5;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  EXPECT_TRUE(res.metrics.all_covered);
  EXPECT_FALSE(res.metrics.truncated);
}

TEST(Simulator, EnergyTallyIsConsistent) {
  const Topology topo = topology::make_greenorbs_like(3);
  SimConfig config;
  config.num_packets = 3;
  config.seed = 4;
  config.max_slots = 20000;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  std::uint64_t total_tx = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    total_tx += res.tally.tx_attempts[n];
    // A node is busy (listening or transmitting) at most end_slot slots.
    EXPECT_LE(res.tally.active_slots[n] + res.tally.tx_attempts[n],
              res.metrics.end_slot);
    EXPECT_EQ(res.tally.active_slots[n] + res.tally.tx_attempts[n] +
                  res.tally.dormant_slots[n],
              res.metrics.end_slot);
  }
  EXPECT_EQ(total_tx, res.metrics.channel.attempts);
  EXPECT_GT(res.energy.total, 0.0);
  EXPECT_GE(res.energy.max_node,
            res.energy.total / static_cast<double>(topo.num_nodes()));
}

TEST(Simulator, ChannelCountersAddUp) {
  const Topology topo = topology::make_greenorbs_like(1);
  SimConfig config;
  config.num_packets = 4;
  config.seed = 9;
  config.max_slots = 20000;
  MiniFlood proto;
  const SimResult res = run_simulation(topo, config, proto);
  const auto& c = res.metrics.channel;
  EXPECT_EQ(c.attempts, c.delivered + c.losses + c.collisions + c.receiver_busy + c.broadcasts);
  std::uint64_t delivered_fresh = 0;
  for (const auto& rec : res.metrics.packets) delivered_fresh += rec.deliveries;
  EXPECT_EQ(c.delivered, delivered_fresh + c.duplicates);
}

TEST(Simulator, InvalidConfigRejected) {
  const Topology topo = pair_topology();
  MiniFlood proto;
  SimConfig config;
  config.num_packets = 0;
  EXPECT_THROW((void)run_simulation(topo, config, proto), InvalidArgument);
  config.num_packets = 1;
  config.packet_spacing = 0;
  EXPECT_THROW((void)run_simulation(topo, config, proto), InvalidArgument);
  config.packet_spacing = 1;
  config.coverage_fraction = 0.0;
  EXPECT_THROW((void)run_simulation(topo, config, proto), InvalidArgument);
}

/// A protocol that proposes an illegal intent must be rejected loudly.
class RogueProtocol final : public FloodingProtocol {
 public:
  explicit RogueProtocol(TxIntent bad) : bad_(bad) {}
  [[nodiscard]] std::string_view name() const override { return "rogue"; }
  void initialize(const SimContext&) override {}
  void on_generate(PacketId, SlotIndex) override {}
  void on_delivery(NodeId, PacketId, NodeId, SlotIndex) override {}
  void on_outcome(const TxResult&, SlotIndex) override {}
  void propose_transmissions(SlotIndex, std::span<const NodeId>,
                             std::vector<TxIntent>& out) override {
    out.push_back(bad_);
  }

 private:
  TxIntent bad_;
};

TEST(Simulator, RogueIntentsAreRejected) {
  Topology topo = test_support::undirected(3, {{0, 1, 1.0}});
  SimConfig config;
  config.num_packets = 1;
  config.seed = 1;
  {
    RogueProtocol rogue(TxIntent{0, 2, 0});  // no link 0 -> 2.
    EXPECT_THROW((void)run_simulation(topo, config, rogue), InvalidArgument);
  }
  {
    RogueProtocol rogue(TxIntent{1, 0, 0});  // sender lacks the packet.
    EXPECT_THROW((void)run_simulation(topo, config, rogue), InvalidArgument);
  }
  {
    RogueProtocol rogue(TxIntent{0, 0, 0});  // self-loop.
    EXPECT_THROW((void)run_simulation(topo, config, rogue), InvalidArgument);
  }
}

TEST(Simulator, UnicastLinkIdsAreValidated) {
  // Rows: 0 -> {1, 2}, 1 -> {0, 3}, 2 -> {0}, 3 -> {1}.
  const Topology topo =
      test_support::undirected(4, {{0, 1, 1.0}, {0, 2, 1.0}, {3, 1, 1.0}});
  SimConfig config;
  config.num_packets = 1;
  config.seed = 1;
  const auto rejects = [&](topology::LinkId link) {
    RogueProtocol rogue(TxIntent{0, 1, 0, link});
    try {
      (void)run_simulation(topo, config, rogue);
    } catch (const InvalidArgument& e) {
      return std::string(e.what()).find("intent over a non-existent link") !=
             std::string::npos;
    }
    return false;
  };
  EXPECT_TRUE(rejects(topology::kNoLink));    // a link-less unicast.
  EXPECT_TRUE(rejects(999));                  // out of range.
  EXPECT_TRUE(rejects(*topo.link_id(3, 1)));  // in another sender's row.
  EXPECT_TRUE(rejects(*topo.link_id(0, 2)));  // names another receiver.
}

}  // namespace
}  // namespace ldcf::sim
