#include "ldcf/theory/compact_flooding.hpp"

#include <algorithm>

#include "ldcf/common/error.hpp"
#include "ldcf/common/math_utils.hpp"
#include "ldcf/theory/fwl.hpp"

namespace ldcf::theory {

namespace {

/// Per-node possession bookkeeping: receive slot and sender per packet
/// (kNeverSlot / kNoNode when the packet is not held).
struct NodeHoldings {
  std::vector<CompactSlot> received_at;  // indexed by packet.
  std::vector<NodeId> received_from;     // indexed by packet.

  [[nodiscard]] bool has(PacketId p) const {
    return received_at[p] != kNeverSlot;
  }
};

}  // namespace

PacketId select_transmission(std::span<const CompactSlot> received_at,
                             CompactSlot slot, std::uint64_t num_sensors) {
  PacketId best = kNoPacket;
  CompactSlot best_time = 0;
  for (PacketId p = 0; p < received_at.size(); ++p) {
    const CompactSlot r = received_at[p];
    if (r == kNeverSlot) continue;
    // Expired once slot >= K_p + m (paper's expired time).
    if (slot >= expired_time(num_sensors, p)) continue;
    // Packets ascend, so an equal receive slot means a newer packet.
    if (best == kNoPacket || r >= best_time) {
      best = p;
      best_time = r;
    }
  }
  return best;
}

CompactRunResult run_compact_flooding(const CompactRunConfig& config) {
  const std::uint64_t n_sensors = config.num_sensors;
  const std::uint64_t big_m = config.num_packets;
  LDCF_REQUIRE(is_power_of_two(n_sensors),
               "Algorithm 1 requires N = 2^n (assumption II)");
  LDCF_REQUIRE(big_m >= 1, "need at least one packet");
  const std::uint32_t n = floor_log2(n_sensors);  // N = 2^n.
  const std::uint64_t total_nodes = n_sensors + 1;

  std::vector<NodeHoldings> nodes(total_nodes);
  for (auto& node : nodes) {
    node.received_at.assign(big_m, kNeverSlot);
    node.received_from.assign(big_m, kNoNode);
  }

  CompactRunResult result;
  result.completion.assign(big_m, kNeverSlot);
  std::vector<std::uint64_t> holders(big_m, 0);  // |X_p| per packet.
  std::uint64_t completed = 0;

  // Safety cap: Lemma 3 predicts M + m - 1 slots; give ample slack.
  const std::uint64_t max_slots = 4 * (big_m + m_of(n_sensors)) + 64;

  struct Tx {
    NodeId from;
    NodeId to;
    PacketId packet;
  };
  // Slots in which each node transmitted (ascending by construction); used
  // for the half-duplex critical-path accounting below.
  std::vector<std::vector<CompactSlot>> tx_slots(total_nodes);

  for (CompactSlot c = 0; completed < big_m; ++c) {
    LDCF_CHECK(c <= max_slots, "Algorithm 1 failed to complete in time");

    // Packet injection: packet p = c becomes available at the source.
    if (c < big_m) {
      const auto p = static_cast<PacketId>(c);
      nodes[0].received_at[p] = c;
      holders[p] = 1;
    }

    // Record beginning-of-slot completions.
    for (PacketId p = 0; p < big_m; ++p) {
      if (result.completion[p] == kNeverSlot && holders[p] == total_nodes) {
        result.completion[p] = c;
        ++completed;
      }
    }
    if (completed == big_m) {
      result.total_slots = c;
      break;
    }

    // Collect this slot's transmissions (synchronous: all selections are
    // made against beginning-of-slot state, matching Eq. (2)).
    std::vector<Tx> txs;
    const std::uint64_t stride = 1ULL << (n == 0 ? 0 : (c % n));
    for (NodeId i = 0; i < n_sensors; ++i) {
      const PacketId pick =
          select_transmission(nodes[i].received_at, c, n_sensors);
      if (pick == kNoPacket) continue;
      NodeId target = static_cast<NodeId>((stride + i) % n_sensors);
      if (target == 0) target = static_cast<NodeId>(n_sensors);  // line 7 note.
      txs.push_back(Tx{i, target, pick});
      tx_slots[i].push_back(c);
    }

    // Half-duplex accounting: type-2 slot iff some node both sends and
    // receives a *non-duplicate* packet this slot.
    bool type2 = false;
    for (const Tx& tx : txs) {
      const bool receiver_also_sends =
          std::any_of(txs.begin(), txs.end(),
                      [&](const Tx& other) { return other.from == tx.to; });
      if (receiver_also_sends && !nodes[tx.to].has(tx.packet)) {
        type2 = true;
        break;
      }
    }
    result.weighted_slots += type2 ? 2u : 1u;
    if (type2) ++result.type2_slots;

    // Apply deliveries (reliable links: every transmission arrives).
    for (const Tx& tx : txs) {
      const bool duplicate = nodes[tx.to].has(tx.packet);
      if (!duplicate) {
        nodes[tx.to].received_at[tx.packet] = c + 1;
        nodes[tx.to].received_from[tx.packet] = tx.from;
        ++holders[tx.packet];
      }
      if (config.record_events) {
        result.events.push_back(
            CompactEvent{c, tx.from, tx.to, tx.packet, duplicate});
      }
    }
  }

  // Critical-path statistics per packet (Theorem 1 / Table I validation).
  // The §IV-A.2 split-slot modification lets a conflicted node transmit in
  // one half-slot and receive in the other, so the extra waiting is charged
  // to the packet being *received*: a hop is doubled iff its receiver was
  // also scheduled to transmit in that slot.
  const auto transmitted_during = [&](NodeId node, CompactSlot slot) {
    return std::binary_search(tx_slots[node].begin(), tx_slots[node].end(),
                              slot);
  };
  result.paths.reserve(big_m);
  for (PacketId p = 0; p < big_m; ++p) {
    PacketPathStats stats;
    CompactSlot latest = 0;
    for (NodeId v = 1; v <= n_sensors; ++v) {
      if (nodes[v].received_at[p] >= latest &&
          nodes[v].received_at[p] != kNeverSlot) {
        latest = nodes[v].received_at[p];
        stats.last_copy_node = v;
      }
    }
    LDCF_CHECK(stats.last_copy_node != kNoNode, "packet never delivered");
    NodeId v = stats.last_copy_node;
    while (v != 0) {
      const CompactSlot tx_slot = nodes[v].received_at[p] - 1;
      const NodeId sender = nodes[v].received_from[p];
      LDCF_CHECK(sender != kNoNode, "broken delivery chain");
      ++stats.hops;
      if (transmitted_during(v, tx_slot)) ++stats.doubled_hops;
      v = sender;
      LDCF_CHECK(stats.hops <= total_nodes, "delivery chain has a cycle");
    }
    stats.waits = (result.completion[p] - p) + stats.doubled_hops;
    result.paths.push_back(stats);
  }
  return result;
}

std::vector<std::uint64_t> possession_trajectory(
    const CompactRunResult& result, const CompactRunConfig& config,
    PacketId packet) {
  LDCF_REQUIRE(packet < config.num_packets, "packet out of range");
  LDCF_REQUIRE(!result.events.empty() || config.num_sensors == 0 ||
                   result.total_slots == result.completion[packet],
               "possession_trajectory needs a run with record_events=true");
  std::vector<std::uint64_t> counts;
  std::vector<bool> has(config.num_sensors + 1, false);
  std::uint64_t holders = 0;
  for (CompactSlot c = 0; c <= result.total_slots; ++c) {
    if (c == packet) {  // injection at the source.
      has[0] = true;
      ++holders;
    }
    counts.push_back(holders);
    for (const CompactEvent& ev : result.events) {
      if (ev.slot != c || ev.packet != packet || ev.duplicate) continue;
      if (!has[ev.to]) {
        has[ev.to] = true;
        ++holders;
      }
    }
  }
  return counts;
}

}  // namespace ldcf::theory
