// Shared machinery for distributed flooding protocols.
//
// Every practical scheme in the paper floods through per-sender "pending"
// sets: when a node obtains a packet it queues (packet, neighbor) pairs and
// serves them FCFS whenever the neighbor's active slot comes around (sleep
// latency); a link-layer ACK retires a pair, a failure leaves it queued for
// the receiver's next period. PendingSetProtocol implements that machinery
// with per-phase buckets so each slot only touches the neighbors that are
// actually awake.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "ldcf/common/rng.hpp"
#include "ldcf/schedule/calendar_queue.hpp"
#include "ldcf/sim/flooding_protocol.hpp"

namespace ldcf::protocols {

using sim::FloodingProtocol;
using sim::SimContext;
using sim::TxIntent;
using sim::TxOutcome;
using sim::TxResult;

/// One queued unicast obligation of a node.
struct PendingEntry {
  PacketId packet = kNoPacket;
  NodeId neighbor = kNoNode;
  double prr = 0.0;
  /// Earliest slot at which this pair may be retried. Collisions draw a
  /// random backoff with an exponentially growing window — without
  /// randomization, hidden senders that deterministically pick the same
  /// receiver would collide at every one of its wakeups forever, and with a
  /// fixed window a large hidden crowd never thins below two arrivals per
  /// wakeup.
  SlotIndex not_before = 0;
  /// Consecutive collision/busy count; window = 2^min(exp, 6) periods.
  std::uint8_t backoff_exp = 0;
};

/// Where pend() files an obligation: the neighbor, the PRR of the link to
/// it and its (primary) wake phase. Protocols that queue the same targets
/// over and over precompute these once per run, so pend() needs neither a
/// Topology::prr search nor a schedule lookup.
struct PendTarget {
  NodeId neighbor = kNoNode;
  double prr = 0.0;
  std::uint32_t phase = 0;
};

/// Per-node link lists as one CSR: row u holds Link{v, prr} entries.
struct LinkRows {
  std::vector<std::size_t> offsets;  ///< row u: [offsets[u], offsets[u+1]).
  std::vector<topology::Link> links;

  [[nodiscard]] std::span<const topology::Link> row(NodeId u) const {
    return {links.data() + offsets[u], links.data() + offsets[u + 1]};
  }
  [[nodiscard]] std::span<topology::Link> row(NodeId u) {
    return {links.data() + offsets[u], links.data() + offsets[u + 1]};
  }
};

/// Reverses `n` nodes' link rows: row v of the result holds Link{u, prr}
/// for each Link{v, prr} in `rows(u)` that `keep(u, link)` accepts, in
/// ascending u order. Built in two passes.
template <typename Rows, typename Keep>
[[nodiscard]] LinkRows reverse_links(NodeId n, Rows rows, Keep keep) {
  LinkRows out;
  out.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (const topology::Link& link : rows(u)) {
      if (keep(u, link)) ++out.offsets[link.to + 1];
    }
  }
  for (NodeId v = 0; v < n; ++v) out.offsets[v + 1] += out.offsets[v];
  out.links.resize(out.offsets[n]);
  std::vector<std::size_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (const topology::Link& link : rows(u)) {
      if (keep(u, link)) {
        out.links[fill[link.to]++] = topology::Link{u, link.prr};
      }
    }
  }
  return out;
}

/// In-links of every node: row r holds Link{u, prr} for each link u -> r
/// that `keep(u, link)` accepts, in ascending u order (the order a 0..N
/// scan of the out-rows meets them).
template <typename Keep>
[[nodiscard]] LinkRows build_in_links(const topology::Topology& topo,
                                      Keep keep) {
  return reverse_links(
      static_cast<NodeId>(topo.num_nodes()),
      [&](NodeId u) { return topo.neighbors(u); }, keep);
}

/// Base class with possession mirrors and phase-bucketed pending sets.
class PendingSetProtocol : public FloodingProtocol {
 public:
  void initialize(const SimContext& ctx) override;
  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_delivery(NodeId receiver, PacketId packet, NodeId from,
                   SlotIndex slot) override;
  void on_outcome(const TxResult& result, SlotIndex slot) override;

 protected:
  [[nodiscard]] const SimContext& ctx() const { return *ctx_; }
  [[nodiscard]] Rng& rng() { return *rng_; }

  /// Local possession knowledge (exact mirror of engine deliveries).
  [[nodiscard]] bool node_has(NodeId node, PacketId packet) const {
    return has_[static_cast<std::size_t>(node) * packet_stride_ + packet] != 0;
  }

  /// Queue (packet -> target.neighbor) at `node`. No-op if already queued.
  void pend(NodeId node, PacketId packet, const PendTarget& target);

  /// pend() with the link PRR and wake phase looked up; throws if there is
  /// no link node -> neighbor.
  void pend(NodeId node, PacketId packet, NodeId neighbor);

  /// Retire a queued pair (no-op if absent).
  void unpend(NodeId node, PacketId packet, NodeId neighbor);

  /// Pending entries of `node` whose neighbor wakes at phase t mod T.
  [[nodiscard]] const std::vector<PendingEntry>& pending_at_phase(
      NodeId node, SlotIndex slot) const;

  /// Nodes with at least one pending entry at phase t mod T, ascending by
  /// id (sorted into a reused scratch buffer; the view is invalidated by
  /// the next call or any pend/unpend). Proposal loops iterate this instead
  /// of all N nodes: only these senders can produce an FCFS intent in the
  /// slot, and ascending order preserves the intent order — and therefore
  /// the channel RNG draw order — of a full 0..N scan.
  [[nodiscard]] std::span<const NodeId> pending_senders_at(SlotIndex slot);

  /// Earliest slot >= from whose phase holds any pending entry, kNeverSlot
  /// when no entries are queued anywhere. Conservative next_busy_slot
  /// building block for subclasses whose proposals are driven purely by the
  /// pending sets (backoffs may make the hinted slot produce nothing — an
  /// early hint is allowed, a late one is not).
  [[nodiscard]] SlotIndex pending_next_busy_slot(SlotIndex from) const {
    return pending_cal_.next_busy_slot(from);
  }

  /// FCFS selection: the oldest pending packet among neighbors awake in this
  /// slot; ties broken toward the best link. nullptr if nothing is due. The
  /// entry is invalidated by the next pend/unpend.
  [[nodiscard]] const PendingEntry* fcfs_entry(NodeId node,
                                               SlotIndex slot) const;

  /// fcfs_entry() as an intent; nullopt if nothing is due.
  [[nodiscard]] std::optional<TxIntent> select_fcfs(NodeId node,
                                                    SlotIndex slot) const {
    const PendingEntry* e = fcfs_entry(node, slot);
    if (e == nullptr) return std::nullopt;
    return TxIntent{node, e->neighbor, e->packet};
  }

  /// Total queued pairs at a node (diagnostics/tests).
  [[nodiscard]] std::size_t pending_count(NodeId node) const;

  /// Hook: which neighbors to queue when `node` obtains `packet` from
  /// `from`. Default: every out-neighbor except `from`.
  virtual void enqueue_forwarding(NodeId node, PacketId packet, NodeId from);

 private:
  const SimContext* ctx_ = nullptr;
  std::optional<Rng> rng_;
  // Flat [node][packet] byte matrix: node_has is the hottest query the
  // protocols make (every candidate scan hits it), so it must be one
  // multiply-add and a byte load, not a vector<bool> bit gather.
  std::vector<std::uint8_t> has_;
  std::uint32_t packet_stride_ = 0;
  // buckets_[node][phase] -> pending entries for neighbors at that phase.
  std::vector<std::vector<std::vector<PendingEntry>>> buckets_;
  // Compact-time index maintained by pend/unpend: per-phase entry counts
  // (feeds pending_next_busy_slot) and the membership lists + positions
  // behind pending_senders_at. Lists are unordered for O(1) removal and
  // sorted on demand into sender_scratch_.
  schedule::PhaseCalendar pending_cal_;
  std::vector<std::vector<NodeId>> senders_by_phase_;
  std::vector<std::uint32_t> sender_pos_;  ///< [node * T + phase] or kNoPos.
  std::vector<NodeId> sender_scratch_;
};

}  // namespace ldcf::protocols
