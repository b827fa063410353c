#include "ldcf/protocols/gamble_index.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ldcf/common/error.hpp"

namespace ldcf::protocols {

void GambleIndex::build(const sim::SimContext& ctx,
                        const topology::DelayDistribution& delay,
                        const GambleFilter& filter) {
  const auto& topo = *ctx.topo;
  const auto n = static_cast<NodeId>(topo.num_nodes());
  tree_delay_.assign(n, TreeDelay{});
  max_lower_ = -std::numeric_limits<double>::infinity();
  for (NodeId r = 0; r < n; ++r) {
    TreeDelay& d = tree_delay_[r];
    d.mean = delay.mean[r];
    d.spread = filter.quantile_z * std::sqrt(delay.variance[r]);
    d.lower = d.mean - d.spread;
    if (!std::isinf(d.mean)) max_lower_ = std::max(max_lower_, d.lower);
  }

  by_phase_.assign(ctx.duty.period, {});
  std::uint32_t links = 0;
  for (NodeId u = 0; u < n; ++u) {
    topology::LinkId next_id = topo.first_link(u);
    for (const topology::Link& link : topo.neighbors(u)) {
      const topology::LinkId id = next_id++;
      const NodeId j = link.to;
      if (link.prr < filter.min_link_prr) continue;
      if (std::isinf(delay.mean[j])) continue;  // no tree baseline.
      const topology::Tree* tree = filter.tree_edges;
      if (tree != nullptr && (j == tree->parent[u] || tree->parent[j] == u)) {
        continue;
      }
      const Candidate c{u, j, links++, id, link.prr};
      if (!filter.every_active_slot) {
        by_phase_[ctx.schedules->active_slot(j)].push_back(c);
        continue;
      }
      for (const std::uint32_t phase : ctx.schedules->active_slots(j)) {
        by_phase_[phase].push_back(c);
      }
    }
  }

  generated_at_.assign(ctx.num_packets, kNeverSlot);
  generated_ = 0;
  deadline_ = -std::numeric_limits<double>::infinity();
  gambled_.assign(static_cast<std::size_t>(links) * ctx.num_packets, false);
}

void GambleIndex::on_generate(PacketId packet, SlotIndex slot) {
  LDCF_REQUIRE(packet == generated_ && packet < generated_at_.size() &&
                   (packet == 0 || generated_at_[packet - 1] <= slot),
               "packets must be generated in id order");
  generated_at_[packet] = slot;
  generated_ = packet + 1;
  deadline_ = std::max(deadline_, static_cast<double>(slot) + max_lower_);
}

}  // namespace ldcf::protocols
