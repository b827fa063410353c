#include "ldcf/protocols/opt.hpp"

#include <algorithm>

#include "ldcf/topology/tree.hpp"

namespace ldcf::protocols {

void OptFlooding::initialize(const SimContext& ctx) {
  ctx_ = &ctx;
  const auto& topo = *ctx.topo;
  const auto n = static_cast<NodeId>(topo.num_nodes());
  first_missing_.assign(n, 0);
  generated_ = 0;
  unsat_cal_.reset(ctx.duty.period);
  frontier_.assign(n, 0);
  claimed_.assign(n, 0);
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
  const topology::Tree& tree = resolve_energy_tree(ctx, built);
  std::vector<double> floors(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    for (const topology::Link& link : topo.neighbors(u)) {
      if (tree.cost[u] < tree.cost[link.to]) {
        floors[link.to] = std::max(floors[link.to], link.prr);
      }
    }
  }
  for (double& f : floors) f *= kQualityFloorFactor;
  // Keep the links that reach their receiver's floor, from both sides: the
  // topology's rows already ascend by sender and by receiver.
  in_ = {};
  out_ = {};
  for (NodeId v = 0; v < n; ++v) {
    for (const topology::InLink& in : topo.in_links(v)) {
      const double prr = topo.link(in.id).prr;
      if (prr >= floors[v]) in_.items.push_back(InEdge{in.from, in.id, prr});
    }
    in_.offsets.push_back(in_.items.size());
    for (const topology::Link& link : topo.neighbors(v)) {
      if (link.prr >= floors[link.to]) out_.items.push_back(link.to);
    }
    out_.offsets.push_back(out_.items.size());
  }

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
  for (const InEdge& in : in_.row(node)) {
    holders += node_has(in.from, packet) ? 1U : 0U;
  }
  frontier_[node] -= holders;
  for (const NodeId to : out_.row(node)) {
    frontier_[to] += node_has(to, packet) ? 0U : 1U;
  }
}

void OptFlooding::on_generate(PacketId packet, SlotIndex /*slot*/) {
  generated_ = packet + 1;
  first_missing_[ctx_->source] = generated_;
  gain(ctx_->source, packet);
  // Every other node that had caught up now misses the new packet. O(N)
  // per generation, amortized by the bounded packet count.
  const auto num_nodes = static_cast<NodeId>(first_missing_.size());
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (first_missing_[n] != packet) continue;
    for (const std::uint32_t phase : ctx_->schedules->active_slots(n)) {
      unsat_cal_.add(phase);
    }
  }
}

void OptFlooding::on_delivery(NodeId receiver, PacketId packet,
                              NodeId /*from*/, SlotIndex /*slot*/) {
  gain(receiver, packet);
  // A fresh copy means the receiver was missing one; it may have caught up.
  PacketId& cursor = first_missing_[receiver];
  while (cursor < generated_ && node_has(receiver, cursor)) ++cursor;
  if (cursor == generated_) {
    for (const std::uint32_t phase :
         ctx_->schedules->active_slots(receiver)) {
      unsat_cal_.remove(phase);
    }
  }
}

void OptFlooding::propose_transmissions(
    SlotIndex slot, std::span<const NodeId> active_receivers,
    std::vector<TxIntent>& out) {
  const auto phase = static_cast<std::size_t>(slot % ctx_->duty.period);
  const std::size_t first_intent = out.size();
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
  for (std::size_t i = first_intent; i < out.size(); ++i) {
    claimed_[out[i].sender] = claimed_[out[i].receiver] = 0;
  }
}

void OptFlooding::serve(NodeId receiver, std::vector<TxIntent>& out) {
  // Oldest missing packet some free neighbor holds (FCFS order), from the
  // first best link among them.
  const std::span<const InEdge> links = in_.row(receiver);
  const InEdge* best = nullptr;
  PacketId packet = kNoPacket;
  for (PacketId p = first_missing_[receiver]; p < generated_ && best == nullptr;
       ++p) {
    if (node_has(receiver, p)) continue;
    for (const InEdge& in : links) {
      if (claimed_[in.from] != 0 || !node_has(in.from, p)) continue;
      if (best == nullptr || in.prr > best->prr) {
        best = &in;
        packet = p;
      }
    }
  }
  if (best == nullptr) return;
  claimed_[best->from] = claimed_[receiver] = 1;
  out.push_back(TxIntent{best->from, receiver, packet, best->id});
}

}  // namespace ldcf::protocols
