#include "ldcf/protocols/dbao.hpp"

#include <algorithm>

#include "ldcf/common/error.hpp"
#include "ldcf/topology/tree.hpp"

namespace ldcf::protocols {

void DbaoFlooding::initialize(const SimContext& ctx) {
  PendingSetProtocol::initialize(ctx);
  const auto& topo = *ctx.topo;

  double max_link = 0.0;
  for (NodeId u = 0; u < topo.num_nodes(); ++u) {
    for (const topology::Link& link : topo.neighbors(u)) {
      max_link = std::max(max_link, topology::distance(topo.position(u),
                                                       topo.position(link.to)));
    }
  }
  cs_range_ = config_.cs_range_factor * max_link;

  // Responsibility assignment: for each receiver keep its best reachable
  // in-neighbors (falling back to all in-neighbors if none are reachable,
  // so pathological traces still flood).
  const auto hop = topo.hop_distances(ctx.source);
  LinkRows in_links = build_in_links(
      topo, [](NodeId /*from*/, const topology::Link& /*link*/) {
        return true;
      });
  const auto target = [&](NodeId r, double prr) {
    return PendTarget{r, prr, ctx.schedules->active_slot(r)};
  };
  responsible_.assign(topo.num_nodes(), {});
  for (NodeId r = 0; r < topo.num_nodes(); ++r) {
    if (r == ctx.source) continue;  // nobody needs to serve the source.
    const std::span<topology::Link> candidates = in_links.row(r);
    auto reachable_end = std::partition(
        candidates.begin(), candidates.end(),
        [&](const topology::Link& l) { return hop[l.to] != kNeverSlot; });
    auto begin = candidates.begin();
    auto end = reachable_end == candidates.begin() ? candidates.end()
                                                   : reachable_end;
    std::sort(begin, end, [](const topology::Link& a, const topology::Link& b) {
      return a.prr > b.prr || (a.prr == b.prr && a.to < b.to);
    });
    const std::size_t keep =
        std::min<std::size_t>(config_.responsible_senders,
                              static_cast<std::size_t>(end - begin));
    for (std::size_t i = 0; i < keep; ++i) {
      const topology::Link& best = begin[static_cast<std::ptrdiff_t>(i)];
      responsible_[best.to].push_back(target(r, best.prr));
    }
  }

  // The top-k responsibility subgraph alone need not span the network;
  // adding every node's ETX-tree parent guarantees a delivery path from the
  // source to each reachable sensor.
  topology::Tree built;
  if (ctx.energy_tree == nullptr) {
    built = topology::build_etx_tree(topo, ctx.source);
  }
  const topology::Tree& tree =
      ctx.energy_tree != nullptr ? *ctx.energy_tree : built;
  for (NodeId r = 0; r < topo.num_nodes(); ++r) {
    const NodeId parent = tree.parent[r];
    if (parent == kNoNode) continue;
    auto& served = responsible_[parent];
    const bool listed =
        std::any_of(served.begin(), served.end(),
                    [&](const PendTarget& t) { return t.neighbor == r; });
    if (!listed) {
      const auto prr = topo.prr(parent, r);
      LDCF_REQUIRE(prr.has_value(), "energy tree edge is not a link");
      served.push_back(target(r, *prr));
    }
  }
  deferred_.clear();
  candidates_.clear();
  first_for_rx_.assign(topo.num_nodes(), kNoCandidate);
  committed_tx_.assign(topo.num_nodes(), 0);
  reserved_rx_.assign(topo.num_nodes(), 0);
}

void DbaoFlooding::enqueue_forwarding(NodeId node, PacketId packet,
                                      NodeId from) {
  for (const PendTarget& target : responsible_[node]) {
    if (target.neighbor == from) continue;
    pend(node, packet, target);
  }
}

bool DbaoFlooding::carrier_sensed(NodeId a, NodeId b) const {
  const auto& topo = *ctx().topo;
  // The distance test is the cheap one and decides nearly every pair.
  if (topology::distance(topo.position(a), topo.position(b)) <= cs_range_) {
    return true;
  }
  return topo.has_link(a, b) || topo.has_link(b, a);
}

void DbaoFlooding::propose_transmissions(
    SlotIndex slot, std::span<const NodeId> /*active_receivers*/,
    std::vector<TxIntent>& out) {
  deferred_.clear();

  // Phase 1: every node with pending work at this phase picks its FCFS
  // candidate (ascending id order matches a full 0..N scan exactly).
  std::vector<Candidate>& candidates = candidates_;
  candidates.clear();
  for (const NodeId node : pending_senders_at(slot)) {
    if (const PendingEntry* e = fcfs_entry(node, slot)) {
      candidates.push_back(
          Candidate{TxIntent{node, e->neighbor, e->packet}, e->prr, false});
    }
  }

  // Phase 2: deterministic back-off among carrier-sensed contenders for the
  // same receiver — the best link transmits, the rest defer and listen in.
  // Contenders outside carrier-sense range stay and will collide (hidden
  // terminals, the residual gap to OPT in Fig. 10).
  // Only contenders for one receiver interact, so each candidate is checked
  // against its receiver's list alone, kept in candidate order (the first
  // sensed higher-ranked contender decides, as in a scan of all pairs).
  if (config_.deterministic_backoff) {
    next_same_rx_.resize(candidates.size());
    for (auto i = static_cast<std::uint32_t>(candidates.size()); i-- > 0;) {
      const NodeId r = candidates[i].intent.receiver;
      next_same_rx_[i] = first_for_rx_[r];
      first_for_rx_[r] = i;
    }
    for (std::uint32_t i = 0; i < candidates.size(); ++i) {
      Candidate& a = candidates[i];
      for (std::uint32_t j = first_for_rx_[a.intent.receiver];
           j != kNoCandidate; j = next_same_rx_[j]) {
        if (i == j) continue;
        const Candidate& b = candidates[j];
        const bool b_ranks_higher =
            b.prr > a.prr ||
            (b.prr == a.prr && b.intent.sender < a.intent.sender);
        if (!b_ranks_higher) continue;
        if (carrier_sensed(a.intent.sender, b.intent.sender)) {
          a.suppressed = true;
          deferred_.emplace_back(a.intent.sender, a.intent.receiver);
          break;
        }
      }
    }
    for (const Candidate& c : candidates) {
      first_for_rx_[c.intent.receiver] = kNoCandidate;
    }
  }

  // Phase 3: semi-duplex resolution. The deterministic back-off assignment
  // staggers transmission starts, so a node that hears a preamble addressed
  // to it aborts its own pending transmission (reception is why it woke),
  // and a sender that hears its receiver start transmitting defers
  // silently. Committing candidates in a fixed order makes this
  // deadlock-free: the first candidate always proceeds.
  for (Candidate& c : candidates) {
    if (c.suppressed) continue;
    if (reserved_rx_[c.intent.sender] != 0 ||
        committed_tx_[c.intent.receiver] != 0) {
      c.suppressed = true;
      deferred_.emplace_back(c.intent.sender, c.intent.receiver);
      continue;
    }
    committed_tx_[c.intent.sender] = 1;
    reserved_rx_[c.intent.receiver] = 1;
  }

  for (const Candidate& c : candidates) {
    committed_tx_[c.intent.sender] = 0;
    reserved_rx_[c.intent.receiver] = 0;
    if (!c.suppressed) out.push_back(c.intent);
  }
}

void DbaoFlooding::on_outcome(const TxResult& result, SlotIndex slot) {
  PendingSetProtocol::on_outcome(result, slot);
  if (result.outcome != TxOutcome::kDelivered) return;
  // Deferred contenders stayed awake listening to the winner's exchange:
  // once they hear the receiver's ACK they drop their own copy of that
  // packet for this receiver.
  for (const auto& [deferred_sender, receiver] : deferred_) {
    if (receiver == result.intent.receiver) {
      unpend(deferred_sender, result.intent.packet, receiver);
    }
  }
}

void DbaoFlooding::on_overhear(NodeId listener, NodeId sender, PacketId packet,
                               SlotIndex /*slot*/) {
  // The listener now knows the transmitter holds the packet: no point
  // forwarding it back.
  //
  // Ordering audit (flooding_protocol.hpp): each call touches only
  // (listener, packet, sender)'s pending entry, and distinct overhears in a
  // slot touch distinct listeners, so this is insensitive to the ascending
  // listener order the channel guarantees — and identical under both
  // channel RNG modes.
  unpend(listener, packet, sender);
}

}  // namespace ldcf::protocols
