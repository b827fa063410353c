#include "ldcf/protocols/opportunistic.hpp"

#include "ldcf/common/error.hpp"

namespace ldcf::protocols {

void OpportunisticFlooding::initialize(const SimContext& ctx) {
  PendingSetProtocol::initialize(ctx);
  tree_ = &resolve_energy_tree(ctx, built_tree_);
  children_.assign(ctx.topo->num_nodes(), {});
  for (NodeId v = 0; v < tree_->parent.size(); ++v) {
    const NodeId parent = tree_->parent[v];
    if (parent == kNoNode) continue;
    const auto id = ctx.topo->link_id(parent, v);
    LDCF_REQUIRE(id.has_value(), "energy tree edge is not a link");
    children_[parent].push_back(PendTarget{v, ctx.topo->link(*id).prr,
                                           ctx.schedules->active_slot(v), *id});
  }
  // Tree children go through the pending machinery and the parent already
  // has the packet, so only non-tree links are gamble candidates.
  gambles_.build(ctx, topology::tree_delay_distribution(*ctx.topo, *tree_,
                                                         ctx.duty),
                 GambleFilter{.min_link_prr = config_.min_link_prr,
                              .quantile_z = config_.quantile_z,
                              .tree_edges = tree_});
}

void OpportunisticFlooding::on_generate(PacketId packet, SlotIndex slot) {
  gambles_.on_generate(packet, slot);
  PendingSetProtocol::on_generate(packet, slot);
}

void OpportunisticFlooding::enqueue_forwarding(NodeId node, PacketId packet,
                                               NodeId /*from*/) {
  // Deterministic traffic follows the energy tree only.
  for (const PendTarget& child : children_[node]) pend(node, packet, child);
}

void OpportunisticFlooding::propose_transmissions(
    SlotIndex slot, std::span<const NodeId> /*active_receivers*/,
    std::vector<TxIntent>& out) {
  // Only nodes with tree traffic due at this phase, or with a gamble link
  // whose receiver wakes now, can act; once every gamble window has closed
  // only the former remain. Both lists ascend, and so does their merge:
  // the node order of a full scan, and therefore the RNG draw order.
  const double next = static_cast<double>(slot + 1);
  const SetBits pending = pending_senders_at(slot);
  std::span<const GambleIndex::Candidate> links;
  if (next < gambles_.deadline()) links = gambles_.candidates_at(slot);
  auto pi = pending.begin();
  while (pi != pending.end() || !links.empty()) {
    const NodeId node =
        links.empty() || (pi != pending.end() && *pi < links.front().sender)
            ? *pi
            : links.front().sender;
    if (pi != pending.end() && *pi == node) ++pi;
    const auto own = GambleIndex::take_sender(links, node);
    // Tree traffic has strict priority (it carries the delivery guarantee).
    if (const auto intent = select_fcfs(node, slot)) {
      out.push_back(*intent);
      continue;
    }
    // Otherwise one gamble, only while the copy would arrive before even an
    // optimistic tree delivery.
    const auto gamble = gambles_.best(
        own, [&](PacketId p) { return node_has(node, p); },
        [&](NodeId j, SlotIndex generated) {
          return next <
                 static_cast<double>(generated) + gambles_.tree_delay(j).lower;
        });
    if (gamble.prr > 0.0 && rng().bernoulli(gamble.prr)) {
      gambles_.mark_gambled(gamble);
      out.push_back(gamble.intent());
    }
  }
}

}  // namespace ldcf::protocols
