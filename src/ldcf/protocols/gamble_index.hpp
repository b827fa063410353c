// Opportunistic-gamble bookkeeping shared by OF and xlayer (DESIGN.md §15):
// both let a node gamble a packet toward an awake neighbor the tree has
// probably not served yet. Candidate links are filed under the phases at
// which the receiver wakes by *schedule* (dead receivers stay candidates),
// ascending by sender and in neighbors() order within a sender: the order
// of a full scan, so first-max tie-breaks and the RNG draw order hold.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldcf/sim/flooding_protocol.hpp"
#include "ldcf/topology/tree.hpp"

namespace ldcf::protocols {

/// Which links may be gambled on.
struct GambleFilter {
  double min_link_prr = 0.0;
  double quantile_z = 0.0;  ///< z of the optimistic quantile mean - z * sd.
  bool every_active_slot = false;  ///< else only the primary active slot.
  /// Links to the sender's parent or children on this tree are left out.
  const topology::Tree* tree_edges = nullptr;
};

class GambleIndex {
 public:
  struct Candidate {
    NodeId sender = kNoNode;
    NodeId receiver = kNoNode;
    std::uint32_t link = 0;  ///< one number per candidate pair.
    topology::LinkId id = topology::kNoLink;  ///< the topology's link id.
    double prr = 0.0;
  };

  /// A sender's chosen gamble; prr stays -1 when nothing qualifies.
  struct Gamble {
    const Candidate* link = nullptr;
    PacketId packet = kNoPacket;
    double prr = -1.0;
    [[nodiscard]] sim::TxIntent intent() const {
      return {link->sender, link->receiver, packet, link->id};
    }
  };

  /// A receiver's tree delay in slots; lower = mean - spread, spread = z*sd.
  struct TreeDelay {
    double mean = 0.0, spread = 0.0, lower = 0.0;
  };

  /// Indexes the links passing `filter` toward receivers on the tree of
  /// `delay` (finite mean).
  void build(const sim::SimContext& ctx,
             const topology::DelayDistribution& delay,
             const GambleFilter& filter);

  /// Records a generation (ids ascending, slots non-decreasing).
  void on_generate(PacketId packet, SlotIndex slot);

  /// Max over generations of slot + max lower quantile: no packet's
  /// optimistic tree ETA gen + lower lies beyond it.
  [[nodiscard]] double deadline() const { return deadline_; }

  /// Candidates whose receiver wakes at the phase of `slot`.
  [[nodiscard]] std::span<const Candidate> candidates_at(SlotIndex slot) const {
    return by_phase_[slot % by_phase_.size()];
  }

  [[nodiscard]] const TreeDelay& tree_delay(NodeId receiver) const {
    return tree_delay_[receiver];
  }

  /// Pops the leading run of `links` whose sender is `node` (maybe empty).
  static std::span<const Candidate> take_sender(
      std::span<const Candidate>& links, NodeId node) {
    std::size_t count = 0;
    while (count < links.size() && links[count].sender == node) ++count;
    const auto own = links.first(count);
    links = links.subspan(count);
    return own;
  }

  /// The first best-PRR link of one sender's candidates, with its newest
  /// packet that the sender holds and has not gambled over the link, among
  /// those with open(receiver, generated slot). `open` must be monotone in
  /// the slot: generation slots never decrease with the packet id, so the
  /// scan stops at the first closed packet — no older one can qualify.
  template <class Holds, class Open>
  [[nodiscard]] Gamble best(std::span<const Candidate> links, Holds&& holds,
                            Open&& open) const {
    Gamble best;
    for (const Candidate& c : links) {
      for (PacketId p = generated_; p-- > 0;) {
        if (!open(c.receiver, generated_at_[p])) break;
        if (!holds(p) || gambled_[bit(c, p)]) continue;
        if (c.prr > best.prr) best = Gamble{&c, p, c.prr};
        break;
      }
    }
    return best;
  }

  void mark_gambled(const Gamble& g) { gambled_[bit(*g.link, g.packet)] = true; }

 private:
  [[nodiscard]] std::size_t bit(const Candidate& c, PacketId packet) const {
    return static_cast<std::size_t>(c.link) * generated_at_.size() + packet;
  }

  std::vector<std::vector<Candidate>> by_phase_;
  std::vector<TreeDelay> tree_delay_;
  std::vector<SlotIndex> generated_at_;
  PacketId generated_ = 0;
  double max_lower_ = 0.0;
  double deadline_ = 0.0;
  std::vector<bool> gambled_;  ///< flat bitset over (link, packet).
};

}  // namespace ldcf::protocols
