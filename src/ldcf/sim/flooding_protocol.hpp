// The protocol <-> engine contract.
//
// The engine owns physical truth (who possesses what, what the channel did);
// protocols own behaviour (who transmits what to whom each slot). A protocol
// is centralized *code* simulating distributed behaviour: it may coordinate
// internally only through information the real nodes would have (schedules
// via local synchronization, link-layer ACKs, carrier sensing, overhearing).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/schedule/working_schedule.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::topology {
struct Tree;  // topology/tree.hpp; the context only carries a pointer.
}

namespace ldcf::sim {

/// One proposed transmission for the current slot. A unicast names its
/// receiver, which must be active in the slot and a neighbor of the sender;
/// `receiver == kNoNode` is a broadcast, decodable by any active neighbor
/// that hears nothing else. Either way a sender may propose at most one
/// intent per slot (§III-B).
struct TxIntent {
  NodeId sender = kNoNode;
  NodeId receiver = kNoNode;  ///< kNoNode = broadcast.
  PacketId packet = kNoPacket;

  [[nodiscard]] bool is_broadcast() const { return receiver == kNoNode; }
};

/// What the channel did with an intent.
enum class TxOutcome : std::uint8_t {
  kDelivered,     ///< receiver decoded the packet (may be a duplicate).
  kLostChannel,   ///< Bernoulli link loss.
  kCollision,     ///< concurrent transmission to the same receiver.
  kReceiverBusy,  ///< receiver was itself transmitting (semi-duplex).
  kBroadcast,     ///< broadcast sent; per-listener decodes are reported
                  ///< separately (there is no link-layer ACK to a broadcast).
  kSyncMiss,      ///< the sender's estimate of the receiver's wakeup was
                  ///< stale (imperfect local synchronization); the unicast
                  ///< hit a sleeping radio.
};

struct TxResult {
  TxIntent intent;
  TxOutcome outcome = TxOutcome::kLostChannel;
  bool duplicate = false;  ///< receiver already had the packet.
};

/// Read-only view of the run the engine hands to protocols.
struct SimContext {
  const topology::Topology* topo = nullptr;
  const schedule::ScheduleSet* schedules = nullptr;
  DutyCycle duty{};
  std::uint32_t num_packets = 0;
  std::uint64_t seed = 0;  ///< protocols derive their own substreams.
  NodeId source = 0;       ///< the flooding source (paper default: node 0).
  /// Pre-built ETX energy tree rooted at `source`, or nullptr. Supplied
  /// when the caller cached the artifact (SimConfig::shared_tree);
  /// protocols that need the tree use it instead of rebuilding. The build
  /// is deterministic, so using the cache never changes results.
  const topology::Tree* energy_tree = nullptr;
};

/// Interface implemented by each flooding scheme (OPT, DBAO, OF, ...).
class FloodingProtocol {
 public:
  virtual ~FloodingProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once before slot 0.
  virtual void initialize(const SimContext& ctx) = 0;

  /// A new packet became available at the source (node 0).
  virtual void on_generate(PacketId packet, SlotIndex slot) = 0;

  /// Node `receiver` obtained `packet` (unicast delivery or overhearing).
  /// `from` is the transmitter.
  virtual void on_delivery(NodeId receiver, PacketId packet, NodeId from,
                           SlotIndex slot) = 0;

  /// Link-layer ACK feedback for an intent this protocol proposed.
  virtual void on_outcome(const TxResult& result, SlotIndex slot) = 0;

  /// Node `listener` decoded a transmission addressed to someone else and
  /// thereby learned that `sender` possesses `packet` (and obtained the
  /// packet itself; the engine reports that via on_delivery separately).
  ///
  /// Ordering contract (holds in both ChannelRngMode realizations, and is
  /// what the channel kernel's fixed-order apply phase guarantees): within
  /// a slot, every on_outcome/on_delivery for the slot's unicast results
  /// fires first, in intent order, then every on_overhear fires in
  /// ascending listener id. Protocol state updates may depend on this
  /// order; they must not depend on anything finer (e.g. interleaving of
  /// unicast and overhear callbacks), which no mode provides.
  virtual void on_overhear(NodeId listener, NodeId sender, PacketId packet,
                           SlotIndex slot) {
    (void)listener;
    (void)sender;
    (void)packet;
    (void)slot;
  }

  /// Propose this slot's unicasts. `active_receivers` lists nodes that can
  /// receive in this slot (ascending ids): the schedule's wake bucket for
  /// the slot (`schedules->active_nodes_at(slot)`) minus the dead nodes.
  virtual void propose_transmissions(SlotIndex slot,
                                     std::span<const NodeId> active_receivers,
                                     std::vector<TxIntent>& out) = 0;

  /// Compact-time hint: the earliest slot >= `from` at which this protocol
  /// might do *anything observable* in propose_transmissions — emit an
  /// intent, draw from its RNG substream, or mutate state whose value
  /// depends on the slot index. The engine skips the slots in between
  /// without calling propose_transmissions at all, so the contract is
  /// strict: the hint may be early (a busy slot that produces nothing is
  /// merely a wasted visit) but must never be late — a late hint silently
  /// desynchronizes the RNG stream against the dense engine. Return
  /// kNeverSlot for "idle until external input" (the engine still wakes the
  /// protocol for generations and faults). The default claims every slot,
  /// which disables skipping and is always correct.
  [[nodiscard]] virtual SlotIndex next_busy_slot(SlotIndex from) const {
    return from;
  }

  /// Whether the engine should model overhearing for this protocol.
  [[nodiscard]] virtual bool wants_overhearing() const { return false; }

  /// Whether the engine should suppress collisions (oracle scheduling).
  [[nodiscard]] virtual bool collision_free_oracle() const { return false; }
};

}  // namespace ldcf::sim
