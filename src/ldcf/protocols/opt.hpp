// OPT — the oracle-optimal comparator of §V-A.
//
// "Each sensor can always receive a packet from the neighbor who has the
// best link quality to it, and no collision occurs." We realize that with
// receiver-driven greedy matching per slot: every active receiver picks its
// oldest missing packet held by any in-neighbor and is served by the
// best-quality such neighbor that is still free (one unicast per sender,
// semi-duplex respected). The channel runs collision-free for OPT; link
// loss still applies — even the oracle pays for retransmissions (Fig. 11
// shows OPT with failures too).
#pragma once

#include <vector>

#include "ldcf/protocols/protocol.hpp"

namespace ldcf::protocols {

/// Receiver-driven and RNG-free, so it keeps no pending sets: it uses only
/// the energy tree lookup of protocol.hpp.
class OptFlooding final : public FloodingProtocol {
 public:
  /// Link-selectivity floor: a receiver only accepts senders whose link is
  /// at least this fraction of its best upstream link, waiting a period
  /// otherwise. 0 would accept anything (pure greedy), 1 wait for the best;
  /// 0.3 minimizes delay while keeping failures flat across duty cycles.
  static constexpr double kQualityFloorFactor = 0.3;

  [[nodiscard]] std::string_view name() const override { return "opt"; }
  [[nodiscard]] bool collision_free_oracle() const override { return true; }
  /// The oracle exploits every reception opportunity, promiscuous ones
  /// included — anything less would not upper-bound the practical schemes.
  [[nodiscard]] bool wants_overhearing() const override { return true; }

  void initialize(const SimContext& ctx) override;
  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_delivery(NodeId receiver, PacketId packet, NodeId from,
                   SlotIndex slot) override;
  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override;

  /// The oracle is receiver-driven and RNG-free: a slot can only produce
  /// intents if some active receiver still misses a generated packet, so
  /// the calendar of unsatisfied receivers' wake phases is a valid (and
  /// merely conservative — a missing packet no neighbor holds yields a
  /// visit without intents) busy index.
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    return unsat_cal_.next_busy_slot(from);
  }

 private:
  [[nodiscard]] bool node_has(NodeId node, PacketId packet) const {
    return ctx_->possession->has(node, packet);
  }
  /// Bookkeeping for `node` obtaining `packet`: drops the frontier pairs
  /// it now holds and adds one at every qualifying out-neighbor that lacks
  /// the packet.
  void gain(NodeId node, PacketId packet);
  /// Serve one receiver: the oldest missing packet some unclaimed
  /// qualifying in-neighbor holds, from the best such neighbor.
  void serve(NodeId receiver, std::vector<TxIntent>& out);

  /// A qualifying in-link: its sender, the topology's id and the PRR.
  struct InEdge {
    NodeId from = kNoNode;
    topology::LinkId id = topology::kNoLink;
    double prr = 0.0;
  };

  /// Filtered link rows as one CSR: row u is items[offsets[u], offsets[u+1]).
  template <class T>
  struct Rows {
    std::vector<std::size_t> offsets{0};
    std::vector<T> items;
    [[nodiscard]] std::span<const T> row(NodeId u) const {
      return {items.data() + offsets[u], items.data() + offsets[u + 1]};
    }
  };

  const SimContext* ctx_ = nullptr;
  /// first_missing_[v]: v's oldest missing packet, generated_ once v has
  /// caught up (kept exact on every generation and fresh copy). v is on
  /// unsat_cal_ iff first_missing_[v] < generated_.
  std::vector<PacketId> first_missing_;
  /// Qualifying in-links of every node: senders whose link to it reaches
  /// its quality floor. The oracle serves a receiver from whoever can
  /// transmit *to* it, which under asymmetric links is not the same as its
  /// out-neighbor set; links below the floor can never be chosen. Row v
  /// ascends by sender.
  Rows<InEdge> in_;
  /// The same qualifying links from the sender side: row u lists every v
  /// for which u -> v qualifies.
  Rows<NodeId> out_;
  /// frontier_[v]: (qualifying in-neighbor, packet) pairs where the
  /// neighbor holds a generated packet v lacks. A receiver at 0 cannot be
  /// served, so the proposal skips it without looking at its links.
  std::vector<std::uint32_t> frontier_;
  /// Each phase's receivers sorted by (qualifying in-degree, id): the
  /// most-constrained-first order, static because the floors are.
  std::vector<std::size_t> order_offsets_;
  std::vector<NodeId> order_;
  /// Per-slot scratch, all-zero between proposals: nodes claimed as sender
  /// or receiver (semi-duplex; cleared from the slot's intents), and the
  /// marks of the slot's active receivers.
  std::vector<std::uint8_t> claimed_;
  std::vector<std::uint8_t> awake_;
  /// Packets generated so far (bounds the per-slot scan).
  PacketId generated_ = 0;
  /// Wake phases of unsatisfied nodes — the compact-time busy index.
  schedule::PhaseCalendar unsat_cal_;
};

}  // namespace ldcf::protocols
