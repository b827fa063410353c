// OF — Opportunistic Flooding (Guo et al., MobiCom'09), re-implemented.
//
// Structure faithful to the original:
//  * packets always flow down an energy-optimal tree (min-ETX from the
//    source); tree links are served FCFS with retransmissions;
//  * a node additionally makes *probabilistic forwarding decisions* toward
//    non-tree neighbors: it forwards a packet opportunistically only when,
//    according to the receiver's delivery-delay distribution along the
//    tree, the opportunistic copy would arrive significantly earlier than
//    the tree copy (quantile test), the link is good enough to be worth
//    gambling on, and a Bernoulli draw with the link's quality accepts;
//  * senders do not carrier-sense each other, so opportunistic copies can
//    collide with tree traffic — the cost visible in Figs. 9-11.
//
// Constants below are this re-implementation's calibration (the original
// paper's thresholds are hardware-specific): see DESIGN.md §2.
#pragma once

#include <vector>

#include "ldcf/protocols/gamble_index.hpp"
#include "ldcf/protocols/protocol.hpp"

namespace ldcf::protocols {

struct OpportunisticConfig {
  /// Minimum link quality for an opportunistic gamble.
  double min_link_prr = 0.6;
  /// Confidence z: forward only if t+1 < gen + mean - z * stddev of the
  /// receiver's tree-delay distribution (z = 0.84 ~ 80% confidence).
  double quantile_z = 0.84;
};

class OpportunisticFlooding final : public PendingSetProtocol {
 public:
  OpportunisticFlooding() = default;
  explicit OpportunisticFlooding(const OpportunisticConfig& config)
      : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return "of"; }

  void initialize(const SimContext& ctx) override;
  void on_generate(PacketId packet, SlotIndex slot) override;
  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override;

  /// Busy while any gamble window is still open (the quantile test can
  /// accept, so the Bernoulli decision draw may fire in any slot of the
  /// window — a conservative horizon, never late); afterwards only the
  /// pending tree traffic can act.
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    if (static_cast<double>(from + 1) < gambles_.deadline()) return from;
    return pending_next_busy_slot(from);
  }

  /// The run's energy tree: the shared one when the run had it (valid while
  /// that tree lives), else this protocol's own build.
  [[nodiscard]] const topology::Tree& energy_tree() const { return *tree_; }

 protected:
  /// Tree children only (the deterministic part of OF).
  void enqueue_forwarding(NodeId node, PacketId packet, NodeId from) override;

 private:
  OpportunisticConfig config_{};
  const topology::Tree* tree_ = nullptr;
  topology::Tree built_tree_;  ///< used only when no shared tree came in.
  /// Each node's energy-tree children (ascending), as pend targets.
  std::vector<std::vector<PendTarget>> children_;
  /// Non-tree links worth gambling on, by receiver wake phase, plus the
  /// gambles already made (one per node, packet and neighbor: a node does
  /// not hammer the same neighbor with the same packet every period).
  GambleIndex gambles_;
};

}  // namespace ldcf::protocols
