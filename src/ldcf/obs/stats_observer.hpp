// StatsObserver: one run folded into a MetricsRegistry.
//
// Where MetricsCollector assembles the scalar RunMetrics every caller gets
// back, StatsObserver captures the *distributions* the paper's claims are
// about (Theorem 1's delay scaling, Corollary 1's blocking bound, §IV-B's
// k-transmission links). It reads everything it can off the SimResult at
// run end; only per-hop latency and the overhear totals are watched live.
//
//   histograms (bin width 1 slot, 64 bins, auto-ranging unless noted)
//     delay.total          per covered packet: covered_at - generated_at
//     delay.queueing       per covered packet with a transmission:
//                          first_tx_at - generated_at
//     delay.transmission   ... covered_at - first_tx_at
//     delay.per_hop        per fresh copy: receive slot minus the slot the
//                          transmitter itself obtained the packet
//     energy.per_node      per node at run end: consumed charge
//
//   counters
//     tx.attempts / tx.delivered / tx.duplicate / tx.collision /
//     tx.link_loss / tx.receiver_busy / tx.sync_miss / tx.broadcast
//                          transmission-attempt outcome breakdown
//     delivery.unicast / delivery.overheard   fresh first copies by path
//     overhear.heard / overhear.fresh         promiscuous decodes
//     packets.generated / packets.covered
//     slots.simulated      end_slot summed over runs
//     runs.total / runs.truncated
//
// One StatsObserver observes one run at a time; registries from separate
// runs merge exactly (see registry.hpp), which is how reduce_trials builds
// sweep-level distributions that are bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/obs/registry.hpp"
#include "ldcf/sim/observer.hpp"

namespace ldcf::obs {

class StatsObserver final : public sim::SimObserver {
 public:
  /// Sized for one topology/config pair; reusable across runs on the same
  /// pair (histograms keep accumulating — hand out a fresh observer per
  /// run to get per-run registries).
  StatsObserver(std::size_t num_nodes, std::uint32_t num_packets);

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }

  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_delivery(NodeId node, PacketId packet, NodeId from, bool overheard,
                   SlotIndex slot) override;
  void on_overhear(NodeId listener, NodeId sender, PacketId packet, bool fresh,
                   SlotIndex slot) override;
  void on_run_end(const sim::SimResult& result) override;

 private:
  /// Slot a node obtained its copy of a packet (kNeverSlot until it did);
  /// row-major [packet * num_nodes + node]. The transmitter side of
  /// delay.per_hop; the source's entry stays kNeverSlot and falls back to
  /// the packet's generation slot.
  [[nodiscard]] SlotIndex& copy_slot(NodeId node, PacketId packet) {
    return copy_slot_[static_cast<std::size_t>(packet) * num_nodes_ + node];
  }

  MetricsRegistry registry_;
  std::size_t num_nodes_;

  // Handles for the live hooks, resolved once at construction.
  Histogram& delay_per_hop_;
  Counter& overhear_heard_;
  Counter& overhear_fresh_;

  std::vector<SlotIndex> generated_at_;
  std::vector<SlotIndex> copy_slot_;
};

}  // namespace ldcf::obs
