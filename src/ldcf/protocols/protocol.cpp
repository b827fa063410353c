#include "ldcf/protocols/protocol.hpp"

#include <algorithm>

#include "ldcf/common/error.hpp"
#include "ldcf/topology/tree.hpp"

namespace ldcf::protocols {

const topology::Tree& resolve_energy_tree(const SimContext& ctx,
                                          topology::Tree& storage) {
  if (ctx.energy_tree != nullptr) return *ctx.energy_tree;
  storage = topology::build_etx_tree(*ctx.topo, ctx.source);
  return storage;
}

void PendingSetProtocol::initialize(const SimContext& ctx) {
  LDCF_REQUIRE(ctx.topo != nullptr && ctx.schedules != nullptr &&
                   ctx.possession != nullptr,
               "incomplete simulation context");
  ctx_ = &ctx;
  rng_.emplace(ctx.seed);
  buckets_.assign(
      static_cast<std::size_t>(ctx.topo->num_nodes()) * ctx.duty.period, {});
  senders_by_phase_.assign(ctx.duty.period, {});
  pending_cal_.reset(ctx.duty.period);
}

void PendingSetProtocol::pend(NodeId node, PacketId packet,
                              const PendTarget& target) {
  auto& entries = buckets_[bucket_index(node, target.phase)];
  const bool already = std::any_of(
      entries.begin(), entries.end(), [&](const PendingEntry& e) {
        return e.packet == packet && e.neighbor == target.neighbor;
      });
  if (already) return;
  entries.push_back(PendingEntry{packet, target.neighbor, target.prr});
  if (entries.size() == 1) {
    auto& senders = senders_by_phase_[target.phase];
    senders.insert(std::lower_bound(senders.begin(), senders.end(), node),
                   node);
    pending_cal_.add(target.phase);
  }
}

void PendingSetProtocol::unpend(NodeId node, PacketId packet,
                                NodeId neighbor) {
  const std::uint32_t phase = ctx_->schedules->active_slot(neighbor);
  auto& entries = buckets_[bucket_index(node, phase)];
  const auto erased = std::erase_if(entries, [&](const PendingEntry& e) {
    return e.packet == packet && e.neighbor == neighbor;
  });
  if (erased != 0 && entries.empty()) {
    auto& senders = senders_by_phase_[phase];
    senders.erase(std::lower_bound(senders.begin(), senders.end(), node));
    pending_cal_.remove(phase);
  }
}

const std::vector<PendingEntry>& PendingSetProtocol::pending_at_phase(
    NodeId node, SlotIndex slot) const {
  return buckets_[bucket_index(node, static_cast<std::uint32_t>(
                                   slot % ctx_->duty.period))];
}

const PendingEntry* PendingSetProtocol::fcfs_entry(NodeId node,
                                                  SlotIndex slot) const {
  const PendingEntry* best = nullptr;
  for (const PendingEntry& e : pending_at_phase(node, slot)) {
    if (e.not_before > slot) continue;  // still backing off.
    if (best == nullptr || e.packet < best->packet ||
        (e.packet == best->packet && e.prr > best->prr)) {
      best = &e;
    }
  }
  return best;
}

std::size_t PendingSetProtocol::pending_count(NodeId node) const {
  std::size_t total = 0;
  for (std::uint32_t phase = 0; phase < ctx_->duty.period; ++phase) {
    total += buckets_[bucket_index(node, phase)].size();
  }
  return total;
}

void PendingSetProtocol::enqueue_forwarding(NodeId node, PacketId packet,
                                            NodeId from) {
  for (const topology::Link& link : ctx_->topo->neighbors(node)) {
    if (link.to == from) continue;
    pend(node, packet,
         PendTarget{link.to, link.prr, ctx_->schedules->active_slot(link.to)});
  }
}

void PendingSetProtocol::on_generate(PacketId packet, SlotIndex /*slot*/) {
  enqueue_forwarding(ctx_->source, packet, kNoNode);
}

void PendingSetProtocol::on_delivery(NodeId receiver, PacketId packet,
                                     NodeId from, SlotIndex /*slot*/) {
  enqueue_forwarding(receiver, packet, from);
}

void PendingSetProtocol::on_outcome(const TxResult& result, SlotIndex slot) {
  // A link-layer ACK (even for a duplicate) retires the obligation; channel
  // losses stay queued for the receiver's next active slot; collisions and
  // busy receivers back off a random 1..3 periods to break the symmetry
  // between deterministic contenders.
  if (result.outcome == TxOutcome::kDelivered) {
    unpend(result.intent.sender, result.intent.packet, result.intent.receiver);
    return;
  }
  if (result.outcome == TxOutcome::kCollision ||
      result.outcome == TxOutcome::kReceiverBusy) {
    const auto period = ctx().duty.period;
    auto& entries = buckets_[bucket_index(
        result.intent.sender,
        ctx().schedules->active_slot(result.intent.receiver))];
    // Silence the whole sender->receiver pair: backing off only the packet
    // that collided would let the next queued packet collide at the very
    // next wakeup, so the contender crowd would never thin.
    std::uint8_t exp = 0;
    for (const PendingEntry& e : entries) {
      if (e.neighbor == result.intent.receiver) {
        exp = std::max(exp, e.backoff_exp);
      }
    }
    const std::uint64_t window = 1ULL << std::min<std::uint8_t>(exp, 6);
    const SlotIndex resume = slot + (1 + rng().below(window)) * period;
    for (PendingEntry& e : entries) {
      if (e.neighbor == result.intent.receiver) {
        e.not_before = resume;
        if (e.backoff_exp <= exp) e.backoff_exp = static_cast<std::uint8_t>(exp + 1);
      }
    }
  }
}

}  // namespace ldcf::protocols
