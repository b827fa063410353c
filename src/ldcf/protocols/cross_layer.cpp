#include "ldcf/protocols/cross_layer.hpp"

#include <algorithm>

namespace ldcf::protocols {

void CrossLayerFlooding::initialize(const SimContext& ctx) {
  DbaoFlooding::initialize(ctx);
  const topology::Tree delay_tree =
      topology::build_delay_tree(*ctx.topo, ctx.source, ctx.duty);
  gambles_.build(
      ctx, topology::tree_delay_distribution(*ctx.topo, delay_tree, ctx.duty),
      GambleFilter{.min_link_prr = kMinLinkPrr,
                   .quantile_z = kQuantileZ,
                   .every_active_slot = true});
  claimed_.assign(ctx.topo->num_nodes(), 0);
}

void CrossLayerFlooding::on_generate(PacketId packet, SlotIndex slot) {
  gambles_.on_generate(packet, slot);
  DbaoFlooding::on_generate(packet, slot);
}

void CrossLayerFlooding::propose_transmissions(
    SlotIndex slot, std::span<const NodeId> active_receivers,
    std::vector<TxIntent>& out) {
  // MAC layer first: DBAO's scheduled traffic with back-off/overhearing.
  DbaoFlooding::propose_transmissions(slot, active_receivers, out);
  const std::size_t mac_intents = out.size();
  for (std::size_t i = 0; i < mac_intents; ++i) {
    claimed_[out[i].sender] = claimed_[out[i].receiver] = 1;
  }

  // Opportunistic layer: idle nodes may gamble their newest packet toward
  // an awake, untargeted neighbor while its optimistic tree ETA is still at
  // least kMinRemainingPeriods * T away (duty-aware window).
  const double horizon =
      static_cast<double>(slot) +
      kMinRemainingPeriods * static_cast<double>(ctx().duty.period);
  slot_gambles_.clear();
  for (auto links = gambles_.candidates_at(slot); !links.empty();) {
    const NodeId node = links.front().sender;
    const auto own = GambleIndex::take_sender(links, node);
    // A node sending, or about to receive, stays silent.
    if (claimed_[node] != 0) continue;
    const auto gamble = gambles_.best(
        own, [&](PacketId p) { return node_has(node, p); },
        [&](NodeId j, SlotIndex generated) {
          if (claimed_[j] != 0) return false;  // MAC veto.
          const auto& delay = gambles_.tree_delay(j);
          return horizon <
                 static_cast<double>(generated) + delay.mean - delay.spread;
        });
    if (gamble.prr > 0.0 && rng().bernoulli(gamble.prr)) {
      slot_gambles_.push_back(gamble);
    }
  }

  // Gambles can still contend with each other: carrier-sensed gamblers for
  // the same receiver defer to the better link; hidden ones will collide.
  for (const auto& mine : slot_gambles_) {
    const auto suppressed = std::any_of(
        slot_gambles_.begin(), slot_gambles_.end(), [&](const auto& other) {
          if (&other == &mine ||
              other.link->receiver != mine.link->receiver) {
            return false;
          }
          const bool other_wins =
              other.prr > mine.prr || (other.prr == mine.prr &&
                                       other.link->sender < mine.link->sender);
          return other_wins &&
                 carrier_sensed(mine.link->sender, other.link->sender);
        });
    if (!suppressed) {
      gambles_.mark_gambled(mine);
      out.push_back(mine.intent());
    }
  }

  for (std::size_t i = 0; i < mac_intents; ++i) {
    claimed_[out[i].sender] = claimed_[out[i].receiver] = 0;
  }
}

}  // namespace ldcf::protocols
