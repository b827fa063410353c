// Shared machinery for distributed flooding protocols.
//
// Every practical scheme in the paper floods through per-sender "pending"
// sets: when a node obtains a packet it queues (packet, neighbor) pairs and
// serves them FCFS whenever the neighbor's active slot comes around (sleep
// latency); a link-layer ACK retires a pair, a failure leaves it queued for
// the receiver's next period. PendingSetProtocol implements that machinery
// with one pooled entry store: the node's entries for neighbors waking at
// one phase sit in one contiguous segment of it, so each slot only touches
// the neighbors that are actually awake.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
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
  topology::LinkId link = topology::kNoLink;  ///< node -> neighbor.
  /// Consecutive collision/busy count; window = 2^min(exp, 6) periods.
  std::uint8_t backoff_exp = 0;
  double prr = 0.0;
  /// Earliest slot at which this pair may be retried. Collisions draw a
  /// random backoff with an exponentially growing window — without
  /// randomization, hidden senders that deterministically pick the same
  /// receiver would collide at every one of its wakeups forever, and with a
  /// fixed window a large hidden crowd never thins below two arrivals per
  /// wakeup.
  SlotIndex not_before = 0;
};

/// Where pend() files an obligation: the neighbor, the PRR of the link to
/// it, its (primary) wake phase and the link's id. Protocols that queue the
/// same targets over and over precompute these once per run, so pend()
/// needs neither a Topology search nor a schedule lookup.
struct PendTarget {
  NodeId neighbor = kNoNode;
  double prr = 0.0;
  std::uint32_t phase = 0;
  topology::LinkId link = topology::kNoLink;
};

/// The ids of the set bits of a bitset, ascending: a forward range that
/// reads the words as it goes.
class SetBits {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    iterator() = default;
    iterator(std::span<const std::uint64_t> words, std::size_t word)
        : words_(words), word_(word) {
      if (word_ < words_.size()) {
        bits_ = words_[word_];
        settle();
      }
    }
    NodeId operator*() const {
      const auto bit = static_cast<unsigned>(std::countr_zero(bits_));
      return static_cast<NodeId>(word_ * 64 + bit);
    }
    iterator& operator++() {
      bits_ &= bits_ - 1;
      settle();
      return *this;
    }
    iterator operator++(int) {
      iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator& other) const {
      return word_ == other.word_ && bits_ == other.bits_;
    }

   private:
    // Advance to the next word with a set bit, or to the end.
    void settle() {
      while (bits_ == 0 && ++word_ < words_.size()) bits_ = words_[word_];
    }

    std::span<const std::uint64_t> words_;
    std::size_t word_ = 0;
    std::uint64_t bits_ = 0;
  };

  explicit SetBits(std::span<const std::uint64_t> words) : words_(words) {}
  [[nodiscard]] iterator begin() const { return {words_, 0}; }
  [[nodiscard]] iterator end() const { return {words_, words_.size()}; }

 private:
  std::span<const std::uint64_t> words_;
};

/// The run's ETX energy tree rooted at the source: the context's shared
/// tree when the caller cached one, else built into `storage`. The build is
/// deterministic, so both paths give the same tree.
[[nodiscard]] const topology::Tree& resolve_energy_tree(
    const SimContext& ctx, topology::Tree& storage);

/// Base class with the pooled, phase-keyed pending store.
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

  /// Pending entries of `node` whose neighbor wakes at phase t mod T, in
  /// pend order (the view is invalidated by any pend/unpend).
  [[nodiscard]] std::span<const PendingEntry> pending_at_phase(
      NodeId node, SlotIndex slot) const {
    const Segment& list = lists_[list_index(
        node, static_cast<std::uint32_t>(slot % ctx_->duty.period))];
    return {pool_.data() + list.first, list.size};
  }

  /// Nodes with at least one pending entry at phase t mod T, ascending by
  /// id, read from the phase's sender bitset (the view is invalidated by
  /// any pend/unpend). Proposal loops iterate this instead of all N nodes:
  /// only these senders can produce an FCFS intent in the slot, and
  /// ascending order preserves the intent order — and therefore the
  /// channel RNG draw order — of a full 0..N scan.
  [[nodiscard]] SetBits pending_senders_at(SlotIndex slot) const {
    const std::size_t phase = slot % ctx_->duty.period;
    return SetBits(std::span<const std::uint64_t>(
        sender_bits_.data() + phase * words_, words_));
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
  /// slot; ties broken toward the best link, then toward the entry pended
  /// first. nullptr if nothing is due. The entry is invalidated by the next
  /// pend/unpend.
  [[nodiscard]] const PendingEntry* fcfs_entry(NodeId node,
                                               SlotIndex slot) const;

  /// fcfs_entry() as an intent; nullopt if nothing is due.
  [[nodiscard]] std::optional<TxIntent> select_fcfs(NodeId node,
                                                    SlotIndex slot) const {
    const PendingEntry* e = fcfs_entry(node, slot);
    if (e == nullptr) return std::nullopt;
    return TxIntent{node, e->neighbor, e->packet, e->link};
  }

  /// Hook: which neighbors to queue when `node` obtains `packet` from
  /// `from`. Default: every out-neighbor except `from`.
  virtual void enqueue_forwarding(NodeId node, PacketId packet, NodeId from);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffU;

  /// Where one (node, phase)'s entries sit in pool_: `size` entries from
  /// `first`, in pend order, inside a segment of 2^`cls` slots (an empty
  /// list owns no segment).
  struct Segment {
    std::uint32_t first = 0;
    std::uint32_t size = 0;
    std::uint32_t cls = 0;
  };

  /// Index of (node, phase)'s segment in lists_, phase-major so that one
  /// slot's senders read neighbouring heads.
  [[nodiscard]] std::size_t list_index(NodeId node,
                                       std::uint32_t phase) const {
    return static_cast<std::size_t>(phase) * num_nodes_ + node;
  }
  /// A free segment of 2^cls slots: a released one, else the pool grows.
  std::uint32_t allocate(std::uint32_t cls);
  void release(std::uint32_t first, std::uint32_t cls);
  /// Flip (node, phase)'s bit in the sender bitset and the phase's count in
  /// the calendar: its list went empty <-> non-empty.
  void mark_sender(NodeId node, std::uint32_t phase, bool has_work);

  const SimContext* ctx_ = nullptr;
  std::optional<Rng> rng_;
  std::size_t num_nodes_ = 0;
  // The pooled store (the style of Contiki's MEMB/LIST, with one free list
  // per segment size): every live entry sits in pool_, in the segment its
  // (node, phase) list owns. A full list moves to a segment twice the size;
  // an emptied list's segment goes on its size's free list, chained through
  // each free segment's first `packet` field, and is reused before the pool
  // grows.
  std::vector<PendingEntry> pool_;
  std::vector<Segment> lists_;
  std::array<std::uint32_t, 32> free_{};
  // The one index of which (node, phase) has work, changed only when a
  // list goes empty <-> non-empty: one bit per node per phase
  // (pending_senders_at), and the count of non-empty lists per phase
  // (pending_next_busy_slot).
  std::size_t words_ = 0;  // bitset words per phase.
  std::vector<std::uint64_t> sender_bits_;
  schedule::PhaseCalendar pending_cal_;
};

}  // namespace ldcf::protocols
