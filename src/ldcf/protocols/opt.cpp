#include "ldcf/protocols/opt.hpp"

#include <algorithm>

#include "ldcf/topology/tree.hpp"

namespace ldcf::protocols {

void OptFlooding::initialize(const SimContext& ctx) {
  PendingSetProtocol::initialize(ctx);
  const auto& topo = *ctx.topo;
  const auto n = static_cast<NodeId>(topo.num_nodes());
  first_missing_.assign(n, 0);
  generated_ = 0;
  held_.assign(n, 0);
  satisfied_.assign(n, 1);  // vacuous: nothing generated.
  unsat_cal_.reset(ctx.duty.period);
  frontier_.assign(n, 0);
  claimed_.assign(n, 0);
  claimed_dirty_.clear();
  awake_.assign(n, 0);

  // Quality floor per receiver: a fraction of its best incoming PRR. When
  // sender contention is high the oracle waits for a near-best sender
  // rather than burning attempts on a poor fallback link — "receive from
  // the neighbor with the best link quality" taken seriously. The floor
  // must only count *upstream* senders — neighbors strictly closer to the
  // source in ETX terms, who obtain packets without going through the
  // receiver. Anchoring it on an arbitrary in-neighbor can deadlock: two
  // fringe nodes whose only good links point at each other would wait for
  // one another forever.
  topology::Tree built;
  if (ctx.energy_tree == nullptr) {
    built = topology::build_etx_tree(topo, ctx.source);
  }
  const topology::Tree& tree =
      ctx.energy_tree != nullptr ? *ctx.energy_tree : built;
  std::vector<double> best_in_prr(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    for (const topology::Link& link : topo.neighbors(u)) {
      if (tree.cost[u] < tree.cost[link.to]) {
        best_in_prr[link.to] = std::max(best_in_prr[link.to], link.prr);
      }
    }
  }
  const auto qualifies = [&](NodeId /*from*/, const topology::Link& link) {
    return link.prr >= config_.quality_floor_factor * best_in_prr[link.to];
  };
  in_ = build_in_links(topo, qualifies);
  out_ = reverse_links(
      n, [&](NodeId r) { return in_.row(r); },
      [](NodeId /*to*/, const topology::Link& /*from*/) { return true; });

  // Serve the most-constrained receivers first: a receiver with few viable
  // senders must grab its sender before better-connected receivers consume
  // the pool (classic matching heuristic; receiver-id order leaves
  // avoidable conflicts on the table). Viability depends only on static
  // PRRs, so each phase's order is fixed for the run.
  const std::uint32_t period = ctx.duty.period;
  order_offsets_.assign(static_cast<std::size_t>(period) + 1, 0);
  order_.clear();
  for (std::uint32_t phase = 0; phase < period; ++phase) {
    const std::span<const NodeId> bucket =
        ctx.schedules->active_nodes_at(phase);
    const auto first = static_cast<std::ptrdiff_t>(order_.size());
    order_.insert(order_.end(), bucket.begin(), bucket.end());
    std::sort(order_.begin() + first, order_.end(),
              [&](NodeId a, NodeId b) {
                const std::size_t da = in_.row(a).size();
                const std::size_t db = in_.row(b).size();
                return da < db || (da == db && a < b);
              });
    order_offsets_[phase + 1] = order_.size();
  }
}

void OptFlooding::gain(NodeId node, PacketId packet) {
  // Branch-free: whether a neighbor holds the packet is a coin flip during
  // the flood, so the counts are summed rather than tested.
  std::uint32_t holders = 0;
  for (const topology::Link& in : in_.row(node)) {
    holders += node_has(in.to, packet) ? 1U : 0U;
  }
  frontier_[node] -= holders;
  for (const topology::Link& out : out_.row(node)) {
    frontier_[out.to] += node_has(out.to, packet) ? 0U : 1U;
  }
}

void OptFlooding::on_generate(PacketId packet, SlotIndex slot) {
  PendingSetProtocol::on_generate(packet, slot);
  generated_ = packet + 1;
  ++held_[ctx().source];
  gain(ctx().source, packet);
  // Every node that had caught up now misses the new packet (except the
  // source, which just obtained it). O(N) per generation, amortized by the
  // bounded packet count.
  const auto num_nodes = static_cast<NodeId>(satisfied_.size());
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (satisfied_[n] == 0 || held_[n] == generated_) continue;
    satisfied_[n] = 0;
    for (const std::uint32_t phase : ctx().schedules->active_slots(n)) {
      unsat_cal_.add(phase);
    }
  }
}

void OptFlooding::on_delivery(NodeId receiver, PacketId packet, NodeId from,
                              SlotIndex slot) {
  PendingSetProtocol::on_delivery(receiver, packet, from, slot);
  ++held_[receiver];
  gain(receiver, packet);
  if (satisfied_[receiver] == 0 && held_[receiver] == generated_) {
    satisfied_[receiver] = 1;
    for (const std::uint32_t phase : ctx().schedules->active_slots(receiver)) {
      unsat_cal_.remove(phase);
    }
  }
}

void OptFlooding::enqueue_forwarding(NodeId /*node*/, PacketId /*packet*/,
                                     NodeId /*from*/) {
  // Intentionally empty: the oracle matches receivers to senders directly.
}

void OptFlooding::propose_transmissions(
    SlotIndex slot, std::span<const NodeId> active_receivers,
    std::vector<TxIntent>& out) {
  const auto phase = static_cast<std::size_t>(slot % ctx().duty.period);
  const std::span<const NodeId> order(
      order_.data() + order_offsets_[phase],
      order_.data() + order_offsets_[phase + 1]);
  // The active receivers are the phase's bucket, or the live part of it
  // once nodes die: walk the bucket's static order and serve the marked.
  for (const NodeId r : active_receivers) awake_[r] = 1;
  for (const NodeId r : order) {
    if (frontier_[r] == 0) continue;  // nothing to receive from anyone.
    if (awake_[r] == 0) continue;     // dead.
    if (claimed_[r] != 0) continue;   // it already transmits this slot.
    serve(r, out);
  }
  for (const NodeId r : active_receivers) awake_[r] = 0;
  for (const NodeId node : claimed_dirty_) claimed_[node] = 0;
  claimed_dirty_.clear();
}

void OptFlooding::serve(NodeId receiver, std::vector<TxIntent>& out) {
  PacketId& cursor = first_missing_[receiver];
  while (cursor < generated_ && node_has(receiver, cursor)) ++cursor;
  // Oldest missing packet some free neighbor holds (FCFS order), from the
  // first best link among them.
  const std::span<const topology::Link> links = in_.row(receiver);
  const topology::Link* best = nullptr;
  PacketId packet = kNoPacket;
  for (PacketId p = cursor; p < generated_ && best == nullptr; ++p) {
    if (node_has(receiver, p)) continue;
    for (const topology::Link& in : links) {
      if (claimed_[in.to] != 0 || !node_has(in.to, p)) continue;
      if (best == nullptr || in.prr > best->prr) {
        best = &in;
        packet = p;
      }
    }
  }
  if (best == nullptr) return;
  claimed_[best->to] = 1;
  claimed_[receiver] = 1;
  claimed_dirty_.push_back(best->to);
  claimed_dirty_.push_back(receiver);
  out.push_back(TxIntent{best->to, receiver, packet});
}

}  // namespace ldcf::protocols
