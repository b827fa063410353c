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
#include "ldcf/sim/node_state.hpp"

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

/// The run's ETX energy tree rooted at the source: the context's shared
/// tree when the caller cached one, else built into `storage`. The build is
/// deterministic, so both paths give the same tree.
[[nodiscard]] const topology::Tree& resolve_energy_tree(
    const SimContext& ctx, topology::Tree& storage);

/// Base class with phase-bucketed pending sets.
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

  /// Whether `node` holds `packet`, read from the engine's possession state
  /// (SimContext::possession).
  [[nodiscard]] bool node_has(NodeId node, PacketId packet) const {
    return ctx_->possession->has(node, packet);
  }

  /// Queue (packet -> target.neighbor) at `node`. No-op if already queued.
  void pend(NodeId node, PacketId packet, const PendTarget& target);

  /// Retire a queued pair (no-op if absent).
  void unpend(NodeId node, PacketId packet, NodeId neighbor);

  /// Pending entries of `node` whose neighbor wakes at phase t mod T.
  [[nodiscard]] const std::vector<PendingEntry>& pending_at_phase(
      NodeId node, SlotIndex slot) const;

  /// Nodes with at least one pending entry at phase t mod T, ascending by
  /// id (the view is invalidated by the next call or any pend/unpend).
  /// Proposal loops iterate this instead of all N nodes: only these senders
  /// can produce an FCFS intent in the slot, and ascending order preserves
  /// the intent order — and therefore the channel RNG draw order — of a
  /// full 0..N scan.
  [[nodiscard]] std::span<const NodeId> pending_senders_at(
      SlotIndex slot) const {
    return senders_by_phase_[slot % ctx_->duty.period];
  }

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
  [[nodiscard]] std::size_t bucket_index(NodeId node,
                                         std::uint32_t phase) const {
    return static_cast<std::size_t>(node) * ctx_->duty.period + phase;
  }

  const SimContext* ctx_ = nullptr;
  std::optional<Rng> rng_;
  // buckets_[node * T + phase] -> pending entries for neighbors at that
  // phase.
  std::vector<std::vector<PendingEntry>> buckets_;
  // The one index of which (node, phase) has work, changed only when a
  // bucket goes empty <-> non-empty: each phase's ascending list of senders
  // with a non-empty bucket there (pending_senders_at), and the count of
  // those buckets per phase (pending_next_busy_slot).
  std::vector<std::vector<NodeId>> senders_by_phase_;
  schedule::PhaseCalendar pending_cal_;
};

}  // namespace ldcf::protocols
