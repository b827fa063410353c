#include "ldcf/protocols/flash.hpp"

#include <cmath>

namespace ldcf::protocols {

void FlashFlooding::initialize(const SimContext& ctx) {
  ctx_ = &ctx;
  rng_.emplace(ctx.seed);
  budget_per_packet_ = static_cast<std::uint64_t>(
      std::ceil(kBudgetPeriods * static_cast<double>(ctx.duty.period)));
  budget_.assign(
      static_cast<std::size_t>(ctx.topo->num_nodes()) * ctx.num_packets, 0);
}

void FlashFlooding::on_generate(PacketId packet, SlotIndex slot) {
  on_delivery(ctx_->source, packet, kNoNode, slot);
}

void FlashFlooding::on_delivery(NodeId receiver, PacketId packet,
                                NodeId /*from*/, SlotIndex /*slot*/) {
  budget_[static_cast<std::size_t>(receiver) * ctx_->num_packets + packet] =
      budget_per_packet_;
}

void FlashFlooding::propose_transmissions(
    SlotIndex /*slot*/, std::span<const NodeId> /*active_receivers*/,
    std::vector<TxIntent>& out) {
  const auto n = static_cast<NodeId>(ctx_->topo->num_nodes());
  const std::uint32_t packets = ctx_->num_packets;
  // After the main budget drains, a slow "trickle" re-advertisement keeps
  // the flood live (real broadcast floods periodically re-announce; without
  // this, unlucky sleepers would never hear the packet at all).
  const double trickle = kFireProbability /
                         (16.0 * static_cast<double>(ctx_->duty.period));
  for (NodeId node = 0; node < n; ++node) {
    std::uint64_t* budget = &budget_[static_cast<std::size_t>(node) * packets];
    // Oldest packet with remaining budget (FCFS, like the unicast family).
    bool fired = false;
    for (PacketId p = 0; p < packets && !fired; ++p) {
      if (budget[p] == 0) continue;
      if (!rng_->bernoulli(kFireProbability)) break;
      --budget[p];
      out.push_back(TxIntent{node, kNoNode, p});
      fired = true;
    }
    if (fired) continue;
    for (PacketId p = 0; p < packets; ++p) {
      if (!ctx_->possession->has(node, p) || budget[p] != 0) continue;
      if (rng_->bernoulli(trickle)) {
        out.push_back(TxIntent{node, kNoNode, p});
        break;
      }
    }
  }
}

}  // namespace ldcf::protocols
