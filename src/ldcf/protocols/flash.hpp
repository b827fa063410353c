// Broadcast ("flash") flooding — the [17]-style comparator.
//
// Lu & Whitehouse's Flash Flooding broadcasts aggressively and leans on the
// capture effect to survive concurrent transmissions. In an always-on
// network that is extremely fast; the paper argues (§III-B) that under low
// duty cycles broadcasting is a poor primitive because barely anyone is
// awake to hear any given transmission — flooding degenerates to unicasts.
// This protocol exists to quantify that claim: each node re-broadcasts every
// packet it holds a bounded number of times at randomized slots; listeners
// decode when the channel lets them (enable SimConfig::capture_ratio to give
// it its capture advantage).
#pragma once

#include <optional>
#include <vector>

#include "ldcf/common/rng.hpp"
#include "ldcf/protocols/protocol.hpp"

namespace ldcf::protocols {

/// Broadcast-only, so it keeps no pending sets.
class FlashFlooding final : public FloodingProtocol {
 public:
  /// Re-broadcast budget per (node, packet), in multiples of the period:
  /// budget = ceil(kBudgetPeriods * T). With one listener expected per
  /// ~T/degree slots, a couple of periods' worth of shots reaches most
  /// neighbors.
  static constexpr double kBudgetPeriods = 3.0;
  /// Probability of actually firing in an eligible slot (desynchronizes
  /// neighbors that obtained the packet in the same slot).
  static constexpr double kFireProbability = 0.35;

  [[nodiscard]] std::string_view name() const override { return "flash"; }

  void initialize(const SimContext& ctx) override;
  /// Every fresh copy, the source's included, arms the full budget.
  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_delivery(NodeId receiver, PacketId packet, NodeId from,
                   SlotIndex slot) override;
  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override;

  /// Before any node holds a packet the proposal loop draws nothing; from
  /// the first copy onward (the source's copy of packet 0) the trickle
  /// re-advertisement draws its Bernoulli every slot forever, so the
  /// protocol is busy at every slot after that.
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    return ctx_->possession->holders(0) != 0 ? from : kNeverSlot;
  }

 private:
  const SimContext* ctx_ = nullptr;
  std::optional<Rng> rng_;
  std::uint64_t budget_per_packet_ = 0;
  /// Remaining broadcast budget, [node * M + packet].
  std::vector<std::uint64_t> budget_;
};

}  // namespace ldcf::protocols
