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

struct OptConfig {
  /// Link-selectivity floor: a receiver only accepts senders whose link is
  /// at least this fraction of its best upstream link, waiting a period
  /// otherwise. 0 accepts anything (pure greedy); 1 waits for the best.
  /// 0.3 minimizes delay while keeping failures flat across duty cycles.
  double quality_floor_factor = 0.3;
};

class OptFlooding final : public PendingSetProtocol {
 public:
  OptFlooding() = default;
  explicit OptFlooding(const OptConfig& config) : config_(config) {}

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

 protected:
  /// OPT is receiver-driven; senders keep no pending queues.
  void enqueue_forwarding(NodeId node, PacketId packet, NodeId from) override;

 private:
  /// Bookkeeping for `node` obtaining `packet`: drops the frontier pairs
  /// it now holds and adds one at every qualifying out-neighbor that lacks
  /// the packet.
  void gain(NodeId node, PacketId packet);
  /// Serve one receiver: the oldest missing packet some unclaimed
  /// qualifying in-neighbor holds, from the best such neighbor.
  void serve(NodeId receiver, std::vector<TxIntent>& out);

  OptConfig config_{};
  /// first_missing_[v]: all packets below this id are held by v (monotone
  /// cursor to keep the per-slot scan cheap).
  std::vector<PacketId> first_missing_;
  /// Qualifying in-links of every node: senders whose link to it reaches
  /// its quality floor. The oracle serves a receiver from whoever can
  /// transmit *to* it, which under asymmetric links is not the same as its
  /// out-neighbor set; links below the floor can never be chosen.
  LinkRows in_;
  /// The same qualifying links from the sender side (in_ reversed): row u
  /// lists every v for which u -> v qualifies.
  LinkRows out_;
  /// frontier_[v]: (qualifying in-neighbor, packet) pairs where the
  /// neighbor holds a generated packet v lacks. A receiver at 0 cannot be
  /// served, so the proposal skips it without looking at its links.
  std::vector<std::uint32_t> frontier_;
  /// Each phase's receivers sorted by (qualifying in-degree, id): the
  /// most-constrained-first order, static because the floors are.
  std::vector<std::size_t> order_offsets_;
  std::vector<NodeId> order_;
  /// Per-slot scratch, all-zero between proposals: nodes claimed as sender
  /// or receiver (semi-duplex) with their dirty list, and the marks of the
  /// slot's active receivers.
  std::vector<std::uint8_t> claimed_;
  std::vector<NodeId> claimed_dirty_;
  std::vector<std::uint8_t> awake_;
  /// Packets generated so far (bounds the per-slot scan).
  PacketId generated_ = 0;
  /// held_[v]: distinct generated packets v possesses (mirror of the
  /// engine's fresh-delivery stream); v is satisfied iff held_ == generated_.
  std::vector<PacketId> held_;
  std::vector<std::uint8_t> satisfied_;
  /// Wake phases of unsatisfied nodes — the compact-time busy index.
  schedule::PhaseCalendar unsat_cal_;
};

}  // namespace ldcf::protocols
