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
  num_nodes_ = ctx.topo->num_nodes();
  pool_.clear();
  lists_.assign(num_nodes_ * ctx.duty.period, Segment{});
  free_.fill(kNil);
  words_ = (num_nodes_ + 63) / 64;
  sender_bits_.assign(words_ * ctx.duty.period, 0);
  pending_cal_.reset(ctx.duty.period);
}

std::uint32_t PendingSetProtocol::allocate(std::uint32_t cls) {
  std::uint32_t& head = free_[cls];
  if (head != kNil) {
    const std::uint32_t first = head;
    head = pool_[first].packet;
    return first;
  }
  const std::size_t slots = std::size_t{1} << cls;
  LDCF_REQUIRE(pool_.size() + slots < kNil, "pending store is full");
  const auto first = static_cast<std::uint32_t>(pool_.size());
  pool_.resize(pool_.size() + slots);
  return first;
}

void PendingSetProtocol::release(std::uint32_t first, std::uint32_t cls) {
  pool_[first].packet = free_[cls];
  free_[cls] = first;
}

void PendingSetProtocol::mark_sender(NodeId node, std::uint32_t phase,
                                     bool has_work) {
  std::uint64_t& word =
      sender_bits_[static_cast<std::size_t>(phase) * words_ + node / 64];
  const std::uint64_t bit = 1ULL << (node % 64);
  if (has_work) {
    word |= bit;
    pending_cal_.add(phase);
  } else {
    word &= ~bit;
    pending_cal_.remove(phase);
  }
}

void PendingSetProtocol::pend(NodeId node, PacketId packet,
                              const PendTarget& target) {
  Segment& list = lists_[list_index(node, target.phase)];
  for (std::uint32_t i = 0; i < list.size; ++i) {
    const PendingEntry& e = pool_[list.first + i];
    if (e.packet == packet && e.neighbor == target.neighbor) return;
  }
  if (list.size == 0) {
    list.first = allocate(0);
    list.cls = 0;
    mark_sender(node, target.phase, true);
  } else if (list.size == 1U << list.cls) {
    const std::uint32_t moved = allocate(list.cls + 1);
    std::copy_n(pool_.begin() + list.first, list.size,
                pool_.begin() + moved);
    release(list.first, list.cls);
    list.first = moved;
    ++list.cls;
  }
  pool_[list.first + list.size] =
      PendingEntry{packet, target.neighbor, target.link, 0, target.prr, 0};
  ++list.size;
}

void PendingSetProtocol::unpend(NodeId node, PacketId packet,
                                NodeId neighbor) {
  const std::uint32_t phase = ctx_->schedules->active_slot(neighbor);
  Segment& list = lists_[list_index(node, phase)];
  const auto begin = pool_.begin() + list.first;
  const auto end = begin + list.size;
  // pend keeps (packet, neighbor) unique in its list, so the first match is
  // the only one; the entries behind it shift down to keep pend order.
  const auto it = std::find_if(begin, end, [&](const PendingEntry& e) {
    return e.packet == packet && e.neighbor == neighbor;
  });
  if (it == end) return;
  std::copy(it + 1, end, it);
  --list.size;
  if (list.size == 0) {
    release(list.first, list.cls);
    list.first = 0;
    mark_sender(node, phase, false);
  }
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

void PendingSetProtocol::enqueue_forwarding(NodeId node, PacketId packet,
                                            NodeId from) {
  topology::LinkId id = ctx_->topo->first_link(node);
  for (const topology::Link& link : ctx_->topo->neighbors(node)) {
    if (link.to != from) {
      pend(node, packet,
           PendTarget{link.to, link.prr,
                      ctx_->schedules->active_slot(link.to), id});
    }
    ++id;
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
    const NodeId receiver = result.intent.receiver;
    const Segment& list = lists_[list_index(
        result.intent.sender, ctx().schedules->active_slot(receiver))];
    const std::span<PendingEntry> entries(pool_.data() + list.first,
                                          list.size);
    // Silence the whole sender->receiver pair: backing off only the packet
    // that collided would let the next queued packet collide at the very
    // next wakeup, so the contender crowd would never thin.
    std::uint8_t exp = 0;
    for (const PendingEntry& e : entries) {
      if (e.neighbor == receiver) exp = std::max(exp, e.backoff_exp);
    }
    const std::uint64_t window = 1ULL << std::min<std::uint8_t>(exp, 6);
    const SlotIndex resume =
        slot + (1 + rng().below(window)) * ctx().duty.period;
    for (PendingEntry& e : entries) {
      if (e.neighbor == receiver) {
        e.not_before = resume;
        if (e.backoff_exp <= exp) e.backoff_exp = static_cast<std::uint8_t>(exp + 1);
      }
    }
  }
}

}  // namespace ldcf::protocols
