// Run metrics: per-packet delay decomposition and channel statistics.
//
// The paper measures (§V-B): per-packet flooding delay — the time from a
// packet being pushed into the network until 99% of sensors hold it — split
// into queueing (blocking) delay and transmission delay (Fig. 9); and
// transmission failures (Fig. 11), which drive the energy overhead argument.
#pragma once

#include <cstdint>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/sim/flooding_protocol.hpp"

namespace ldcf::sim {

/// Lifecycle of one flooded packet.
struct PacketRecord {
  PacketId packet = kNoPacket;
  SlotIndex generated_at = kNeverSlot;  ///< available at the source.
  SlotIndex first_tx_at = kNeverSlot;   ///< first transmission attempt.
  SlotIndex covered_at = kNeverSlot;    ///< coverage target reached.
  std::uint64_t deliveries = 0;         ///< distinct nodes obtained it.

  [[nodiscard]] bool covered() const { return covered_at != kNeverSlot; }

  /// Total flooding delay in slots (paper's headline metric).
  [[nodiscard]] std::uint64_t total_delay() const {
    return covered() ? covered_at - generated_at : 0;
  }

  /// Head-of-line blocking at the source before the first transmission.
  [[nodiscard]] std::uint64_t queueing_delay() const {
    if (!covered() || first_tx_at == kNeverSlot) return 0;
    return first_tx_at - generated_at;
  }

  /// Time actually spent disseminating.
  [[nodiscard]] std::uint64_t transmission_delay() const {
    if (!covered() || first_tx_at == kNeverSlot) return 0;
    return covered_at - first_tx_at;
  }
};

/// Aggregated channel/protocol counters for a run: the one outcome tally.
/// Every consumer of tx results counts through record().
struct ChannelCounters {
  std::uint64_t attempts = 0;            ///< transmissions proposed and sent.
  std::uint64_t delivered = 0;           ///< decoded by the addressee.
  std::uint64_t duplicates = 0;          ///< delivered but already held.
  std::uint64_t losses = 0;              ///< Bernoulli channel losses.
  std::uint64_t collisions = 0;          ///< same-receiver collisions.
  std::uint64_t receiver_busy = 0;       ///< semi-duplex conflicts.
  std::uint64_t broadcasts = 0;          ///< broadcast transmissions.
  std::uint64_t sync_misses = 0;         ///< wakeup-estimate failures.
  std::uint64_t overhear_deliveries = 0; ///< new copies via overhearing or
                                         ///< broadcast decoding.

  /// The paper's "number of transmission failures" (Fig. 11): attempts that
  /// delivered nothing.
  [[nodiscard]] std::uint64_t failures() const {
    return losses + collisions + receiver_busy + sync_misses;
  }

  /// Count one transmission attempt; `duplicate` matters only for
  /// kDelivered. overhear_deliveries is not an outcome: count it apart.
  void record(TxOutcome outcome, bool duplicate) {
    ++attempts;
    switch (outcome) {
      case TxOutcome::kDelivered:
        ++delivered;
        if (duplicate) ++duplicates;
        break;
      case TxOutcome::kLostChannel:
        ++losses;
        break;
      case TxOutcome::kCollision:
        ++collisions;
        break;
      case TxOutcome::kReceiverBusy:
        ++receiver_busy;
        break;
      case TxOutcome::kBroadcast:
        ++broadcasts;
        break;
      case TxOutcome::kSyncMiss:
        ++sync_misses;
        break;
    }
  }

  /// Fieldwise sum (window coarsening, series merges).
  void add(const ChannelCounters& other) {
    attempts += other.attempts;
    delivered += other.delivered;
    duplicates += other.duplicates;
    losses += other.losses;
    collisions += other.collisions;
    receiver_busy += other.receiver_busy;
    broadcasts += other.broadcasts;
    sync_misses += other.sync_misses;
    overhear_deliveries += other.overhear_deliveries;
  }
};

/// Everything measured in one run.
struct RunMetrics {
  std::vector<PacketRecord> packets;
  ChannelCounters channel;
  SlotIndex end_slot = 0;       ///< first slot after the run stopped.
  bool all_covered = false;     ///< every packet reached the coverage target.
  bool truncated = false;       ///< stopped by the max_slots liveness guard.
  std::uint64_t coverage_target = 0;  ///< sensors needed per packet.

  /// Mean total delay over covered packets.
  [[nodiscard]] double mean_total_delay() const;
  /// Mean queueing (blocking) delay over covered packets.
  [[nodiscard]] double mean_queueing_delay() const;
  /// Mean transmission delay over covered packets.
  [[nodiscard]] double mean_transmission_delay() const;
  /// Maximum total delay over covered packets.
  [[nodiscard]] std::uint64_t max_total_delay() const;
  /// Quantile of the total delay over covered packets (nearest-rank,
  /// q in [0, 1]); 0 when nothing is covered.
  [[nodiscard]] std::uint64_t delay_quantile(double q) const;
  /// Fraction of packets that reached the coverage target.
  [[nodiscard]] double covered_fraction() const;
};

}  // namespace ldcf::sim
