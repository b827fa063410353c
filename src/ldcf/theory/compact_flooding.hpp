// Algorithm 1 — matrix-based multi-packet flooding over the compact time
// scale (paper §IV-A.1), plus the half-duplex slot accounting of §IV-A.2.
//
// Setting: ideal network (reliable links), complete connectivity, one source
// (node 0) and N = 2^n nominal sensors (nodes 1..N). Packet p is injected at
// the source at compact slot c = p. At every compact slot c each node i in
// {0..N-1} holding a non-expired packet transmits its most recently received
// non-expired packet f(i, c) to node (2^(c mod n) + i) mod N, where a target
// of 0 maps to node N.
//
// A packet p is expired at slot c once c >= K_p + m (m = ceil(log2(1+N)),
// K_p = p): by then Algorithm 1 has delivered it everywhere, so transmitting
// it further is wasted work.
//
// The dissemination evolves exactly by Eq. (2):
//   X_p(c+1) = X_p(c) + S_p(c) * 1
// and the engine records every S_p(c) entry as a CompactEvent so tests can
// replay the matrix form.
//
// Half-duplex accounting: a slot where some node both transmits and receives
// is a "type-2" slot; the §IV-A.2 modification splits it into two halves, so
// it costs 2 waitings instead of 1. `weighted_slots` charges exactly that.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldcf/common/types.hpp"

namespace ldcf::theory {

/// One transmission (an S_p(c) matrix entry: s_p(to, from) = 1).
struct CompactEvent {
  CompactSlot slot = 0;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  PacketId packet = kNoPacket;
  bool duplicate = false;  ///< receiver already held the packet.
};

struct CompactRunConfig {
  std::uint64_t num_sensors = 4;  ///< N; must be a power of two (assumption II).
  std::uint64_t num_packets = 1;  ///< M.
  bool record_events = false;     ///< keep the full S_p(c) trace.
};

/// Critical-path statistics for one packet's dissemination. Theorem 1's FWL
/// counts waitings experienced by the *last copy* of a packet: the chain of
/// hops from the source to the last node covered, plus (under half-duplex)
/// one extra waiting per path hop whose sender was simultaneously receiving
/// (a "type-2" slot the §IV-A.2 modification splits in two).
struct PacketPathStats {
  NodeId last_copy_node = kNoNode;  ///< last node to obtain the packet.
  std::uint64_t hops = 0;           ///< path length source -> last copy.
  /// Hops whose receiver was also scheduled to transmit in the hop slot:
  /// the split-slot modification delays such receptions by half a slot, so
  /// they cost one extra waiting charged to the received packet.
  std::uint64_t doubled_hops = 0;
  /// W_p under half-duplex: elapsed compact slots from injection to full
  /// coverage plus the doubled hops on the critical path. Table I bounds
  /// this by m + min(p, m-1).
  std::uint64_t waits = 0;
};

struct CompactRunResult {
  /// completion[p] = first compact slot c at which every node possesses
  /// packet p at the beginning of the slot.
  std::vector<CompactSlot> completion;
  /// Compact-slot FDL: the slot by which all packets are everywhere
  /// (Lemma 3 predicts M + m - 1 under full duplex).
  CompactSlot total_slots = 0;
  /// Number of slots in which some node both transmitted and received a new
  /// (non-duplicate) packet. A coarse global measure; the per-packet
  /// critical-path statistics below are what Theorem 1 bounds.
  std::uint64_t type2_slots = 0;
  /// Naive global serialization cost (every type-2 slot charged twice).
  /// Upper envelope only — parallel receivers make the true FWL smaller.
  std::uint64_t weighted_slots = 0;
  /// Per-packet critical-path stats (Theorem 1 / Table I validation).
  std::vector<PacketPathStats> paths;
  /// All transmissions, if requested.
  std::vector<CompactEvent> events;
};

/// Run Algorithm 1 to completion. Throws InvalidArgument if num_sensors is
/// not a power of two or num_packets == 0.
[[nodiscard]] CompactRunResult run_compact_flooding(const CompactRunConfig& config);

/// The f(i, c) transmission-selection rule: given a node's receive slot
/// per packet (indexed by packet id; kNeverSlot = not held), pick the most
/// recently received packet that is not expired at slot c (ties broken
/// toward the newer packet index). Returns kNoPacket if none.
[[nodiscard]] PacketId select_transmission(
    std::span<const CompactSlot> received_at, CompactSlot slot,
    std::uint64_t num_sensors);

/// Replay a run's events through Eq. (2) and return the possession counts
/// |X_p(c)| for packet `packet` at the beginning of each compact slot
/// c = 0..total_slots. Used by tests to validate the matrix evolution.
[[nodiscard]] std::vector<std::uint64_t> possession_trajectory(
    const CompactRunResult& result, const CompactRunConfig& config,
    PacketId packet);

}  // namespace ldcf::theory
