// Differential-test helpers for protocol rewrites: a forwarding wrapper
// that logs every intent a protocol proposes, a field-by-field SimResult
// comparison, and the pend target of a link looked up on demand (plus
// support/intents.hpp's unicast helper).
#pragma once

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "ldcf/protocols/protocol.hpp"
#include "ldcf/sim/flooding_protocol.hpp"
#include "ldcf/sim/simulator.hpp"
#include "support/intents.hpp"

namespace ldcf::protocols::test {

using sim::SimContext;
using sim::TxIntent;
using sim::TxResult;

/// The PendTarget of the link from -> to, with its id searched and the
/// receiver's wake phase looked up on every call, as test references and
/// hand-driven pending sets need. Throws if there is no such link.
inline PendTarget link_target(const SimContext& ctx, NodeId from, NodeId to) {
  const topology::LinkId id = ctx.topo->link_id(from, to).value();
  return PendTarget{to, ctx.topo->link(id).prr,
                    ctx.schedules->active_slot(to), id};
}

using IntentLog = std::vector<std::tuple<SlotIndex, NodeId, NodeId, PacketId>>;

// Forwards every hook to `inner` and logs each intent it proposes.
class Recorder final : public sim::FloodingProtocol {
 public:
  explicit Recorder(sim::FloodingProtocol& inner) : inner_(inner) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }
  void initialize(const SimContext& ctx) override { inner_.initialize(ctx); }
  void on_generate(PacketId packet, SlotIndex slot) override {
    inner_.on_generate(packet, slot);
  }
  void on_delivery(NodeId receiver, PacketId packet, NodeId from,
                   SlotIndex slot) override {
    inner_.on_delivery(receiver, packet, from, slot);
  }
  void on_outcome(const TxResult& result, SlotIndex slot) override {
    inner_.on_outcome(result, slot);
  }
  void on_overhear(NodeId listener, NodeId sender, PacketId packet,
                   SlotIndex slot) override {
    inner_.on_overhear(listener, sender, packet, slot);
  }
  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override {
    const std::size_t before = out.size();
    inner_.propose_transmissions(slot, active_receivers, out);
    for (std::size_t i = before; i < out.size(); ++i) {
      log.emplace_back(slot, out[i].sender, out[i].receiver, out[i].packet);
    }
  }
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    return inner_.next_busy_slot(from);
  }
  [[nodiscard]] bool wants_overhearing() const override {
    return inner_.wants_overhearing();
  }
  [[nodiscard]] bool collision_free_oracle() const override {
    return inner_.collision_free_oracle();
  }

  IntentLog log;

 private:
  sim::FloodingProtocol& inner_;
};

inline void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.metrics.end_slot, b.metrics.end_slot);
  EXPECT_EQ(a.metrics.all_covered, b.metrics.all_covered);
  EXPECT_EQ(a.metrics.truncated, b.metrics.truncated);
  const auto& ca = a.metrics.channel;
  const auto& cb = b.metrics.channel;
  EXPECT_EQ(ca.attempts, cb.attempts);
  EXPECT_EQ(ca.delivered, cb.delivered);
  EXPECT_EQ(ca.duplicates, cb.duplicates);
  EXPECT_EQ(ca.losses, cb.losses);
  EXPECT_EQ(ca.collisions, cb.collisions);
  EXPECT_EQ(ca.receiver_busy, cb.receiver_busy);
  EXPECT_EQ(ca.sync_misses, cb.sync_misses);
  ASSERT_EQ(a.metrics.packets.size(), b.metrics.packets.size());
  for (std::size_t p = 0; p < a.metrics.packets.size(); ++p) {
    EXPECT_EQ(a.metrics.packets[p].generated_at,
              b.metrics.packets[p].generated_at);
    EXPECT_EQ(a.metrics.packets[p].first_tx_at,
              b.metrics.packets[p].first_tx_at);
    EXPECT_EQ(a.metrics.packets[p].covered_at, b.metrics.packets[p].covered_at);
    EXPECT_EQ(a.metrics.packets[p].deliveries, b.metrics.packets[p].deliveries);
  }
  EXPECT_EQ(a.tally.active_slots, b.tally.active_slots);
  EXPECT_EQ(a.tally.dormant_slots, b.tally.dormant_slots);
  EXPECT_EQ(a.tally.tx_attempts, b.tally.tx_attempts);
  EXPECT_EQ(a.tally.receptions, b.tally.receptions);
  EXPECT_EQ(a.energy.per_node, b.energy.per_node);
}

}  // namespace ldcf::protocols::test
