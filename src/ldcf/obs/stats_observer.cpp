#include "ldcf/obs/stats_observer.hpp"

#include "ldcf/sim/engine.hpp"

namespace ldcf::obs {

StatsObserver::StatsObserver(std::size_t num_nodes, std::uint32_t num_packets)
    : num_nodes_(num_nodes),
      delay_per_hop_(registry_.histogram("delay.per_hop")),
      overhear_heard_(registry_.counter("overhear.heard")),
      overhear_fresh_(registry_.counter("overhear.fresh")),
      generated_at_(num_packets, kNeverSlot),
      copy_slot_(static_cast<std::size_t>(num_packets) * num_nodes,
                 kNeverSlot) {}

void StatsObserver::on_generate(PacketId packet, SlotIndex slot) {
  generated_at_[packet] = slot;
}

void StatsObserver::on_delivery(NodeId node, PacketId packet, NodeId from,
                                bool /*overheard*/, SlotIndex slot) {
  // Per-hop latency: when did the transmitter itself obtain the packet?
  // Only the source holds a packet it was never delivered; its copy dates
  // from the generation slot.
  const SlotIndex from_copy = copy_slot(from, packet);
  const SlotIndex held_since =
      from_copy != kNeverSlot ? from_copy : generated_at_[packet];
  if (held_since != kNeverSlot && slot >= held_since) {
    delay_per_hop_.record(static_cast<double>(slot - held_since));
  }
  copy_slot(node, packet) = slot;
}

void StatsObserver::on_overhear(NodeId /*listener*/, NodeId /*sender*/,
                                PacketId /*packet*/, bool fresh,
                                SlotIndex /*slot*/) {
  overhear_heard_.inc();
  if (fresh) overhear_fresh_.inc();
}

void StatsObserver::on_run_end(const sim::SimResult& result) {
  const sim::ChannelCounters& c = result.metrics.channel;
  registry_.counter("tx.attempts").inc(c.attempts);
  registry_.counter("tx.delivered").inc(c.delivered);
  registry_.counter("tx.duplicate").inc(c.duplicates);
  registry_.counter("tx.collision").inc(c.collisions);
  registry_.counter("tx.link_loss").inc(c.losses);
  registry_.counter("tx.receiver_busy").inc(c.receiver_busy);
  registry_.counter("tx.sync_miss").inc(c.sync_misses);
  registry_.counter("tx.broadcast").inc(c.broadcasts);

  // Histogram bins and sums depend only on the multiset of (integer)
  // samples, so recording in packet order matches recording as each
  // packet covered.
  Histogram& total = registry_.histogram("delay.total");
  Histogram& queueing = registry_.histogram("delay.queueing");
  Histogram& transmission = registry_.histogram("delay.transmission");
  std::uint64_t generated = 0;
  std::uint64_t covered = 0;
  std::uint64_t deliveries = 0;
  for (const sim::PacketRecord& rec : result.metrics.packets) {
    deliveries += rec.deliveries;
    if (rec.generated_at == kNeverSlot) continue;
    ++generated;
    if (!rec.covered()) continue;
    ++covered;
    total.record(static_cast<double>(rec.total_delay()));
    // Covered before any transmission (first_tx_at is kNeverSlot or a
    // later slot): no queueing/transmission split to sample.
    if (rec.first_tx_at >= rec.covered_at) continue;
    queueing.record(static_cast<double>(rec.queueing_delay()));
    transmission.record(static_cast<double>(rec.transmission_delay()));
  }
  registry_.counter("delivery.unicast").inc(deliveries - c.overhear_deliveries);
  registry_.counter("delivery.overheard").inc(c.overhear_deliveries);
  registry_.counter("packets.generated").inc(generated);
  registry_.counter("packets.covered").inc(covered);

  Histogram& energy = registry_.histogram("energy.per_node");
  for (const double charge : result.energy.per_node) energy.record(charge);
  registry_.counter("slots.simulated").inc(result.metrics.end_slot);
  registry_.counter("runs.total").inc();
  registry_.counter("runs.truncated").inc(result.metrics.truncated ? 1 : 0);
}

}  // namespace ldcf::obs
