#include "ldcf/protocols/protocol.hpp"

#include <algorithm>

#include "ldcf/common/error.hpp"

namespace ldcf::protocols {

namespace {
constexpr std::uint32_t kNoPos = 0xffffffffu;
}  // namespace

void PendingSetProtocol::initialize(const SimContext& ctx) {
  LDCF_REQUIRE(ctx.topo != nullptr && ctx.schedules != nullptr,
               "incomplete simulation context");
  ctx_ = &ctx;
  rng_.emplace(ctx.seed);
  packet_stride_ = ctx.num_packets;
  has_.assign(static_cast<std::size_t>(ctx.topo->num_nodes()) * packet_stride_,
              0);
  buckets_.assign(ctx.topo->num_nodes(),
                  std::vector<std::vector<PendingEntry>>(ctx.duty.period));
  pending_cal_.reset(ctx.duty.period);
  senders_by_phase_.assign(ctx.duty.period, {});
  sender_pos_.assign(
      static_cast<std::size_t>(ctx.topo->num_nodes()) * ctx.duty.period,
      kNoPos);
}

void PendingSetProtocol::pend(NodeId node, PacketId packet, NodeId neighbor) {
  const auto prr = ctx_->topo->prr(node, neighbor);
  LDCF_REQUIRE(prr.has_value(), "pend over a non-existent link");
  pend(node, packet,
       PendTarget{neighbor, *prr, ctx_->schedules->active_slot(neighbor)});
}

void PendingSetProtocol::pend(NodeId node, PacketId packet,
                              const PendTarget& target) {
  const std::uint32_t phase = target.phase;
  auto& bucket = buckets_[node][phase];
  const bool already = std::any_of(
      bucket.begin(), bucket.end(), [&](const PendingEntry& e) {
        return e.packet == packet && e.neighbor == target.neighbor;
      });
  if (already) return;
  bucket.push_back(PendingEntry{packet, target.neighbor, target.prr});
  pending_cal_.add(phase);
  if (bucket.size() == 1) {
    auto& members = senders_by_phase_[phase];
    sender_pos_[static_cast<std::size_t>(node) * ctx_->duty.period + phase] =
        static_cast<std::uint32_t>(members.size());
    members.push_back(node);
  }
}

void PendingSetProtocol::unpend(NodeId node, PacketId packet,
                                NodeId neighbor) {
  const std::uint32_t phase = ctx_->schedules->active_slot(neighbor);
  auto& bucket = buckets_[node][phase];
  const auto erased = std::erase_if(bucket, [&](const PendingEntry& e) {
    return e.packet == packet && e.neighbor == neighbor;
  });
  if (erased == 0) return;
  pending_cal_.remove(phase, erased);
  if (bucket.empty()) {
    // Swap-remove the node from the phase's membership list.
    auto& members = senders_by_phase_[phase];
    const std::size_t slot_key =
        static_cast<std::size_t>(node) * ctx_->duty.period + phase;
    const std::uint32_t pos = sender_pos_[slot_key];
    const NodeId last = members.back();
    members[pos] = last;
    sender_pos_[static_cast<std::size_t>(last) * ctx_->duty.period + phase] =
        pos;
    members.pop_back();
    sender_pos_[slot_key] = kNoPos;
  }
}

std::span<const NodeId> PendingSetProtocol::pending_senders_at(
    SlotIndex slot) {
  const auto& members = senders_by_phase_[slot % ctx_->duty.period];
  sender_scratch_.assign(members.begin(), members.end());
  std::sort(sender_scratch_.begin(), sender_scratch_.end());
  return sender_scratch_;
}

const std::vector<PendingEntry>& PendingSetProtocol::pending_at_phase(
    NodeId node, SlotIndex slot) const {
  return buckets_[node][slot % ctx_->duty.period];
}

const PendingEntry* PendingSetProtocol::fcfs_entry(NodeId node,
                                                  SlotIndex slot) const {
  const auto& bucket = pending_at_phase(node, slot);
  const PendingEntry* best = nullptr;
  for (const PendingEntry& e : bucket) {
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
  for (const auto& bucket : buckets_[node]) total += bucket.size();
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
  has_[static_cast<std::size_t>(ctx_->source) * packet_stride_ + packet] = 1;
  enqueue_forwarding(ctx_->source, packet, kNoNode);
}

void PendingSetProtocol::on_delivery(NodeId receiver, PacketId packet,
                                     NodeId from, SlotIndex /*slot*/) {
  has_[static_cast<std::size_t>(receiver) * packet_stride_ + packet] = 1;
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
    auto& bucket =
        buckets_[result.intent.sender]
                [ctx().schedules->active_slot(result.intent.receiver)];
    // Silence the whole sender->receiver pair: backing off only the packet
    // that collided would let the next queued packet collide at the very
    // next wakeup, so the contender crowd would never thin.
    std::uint8_t exp = 0;
    for (const PendingEntry& e : bucket) {
      if (e.neighbor == result.intent.receiver) {
        exp = std::max(exp, e.backoff_exp);
      }
    }
    const std::uint64_t window = 1ULL << std::min<std::uint8_t>(exp, 6);
    const SlotIndex resume = slot + (1 + rng().below(window)) * period;
    for (PendingEntry& e : bucket) {
      if (e.neighbor == result.intent.receiver) {
        e.not_before = resume;
        if (e.backoff_exp <= exp) e.backoff_exp = static_cast<std::uint8_t>(exp + 1);
      }
    }
  }
}

}  // namespace ldcf::protocols
