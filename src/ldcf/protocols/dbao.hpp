// DBAO — Deterministic Back-off Assignment + Overhearing (the authors'
// WASA'11 protocol, §V-A's practical near-optimal scheme).
//
// Senders run the FCFS pending-set discipline. When several senders want
// the same awake receiver, the ones that can hear each other (mutual
// carrier sense: a link exists between them) resolve the contention with
// deterministic back-off ranks — the sender with the best link to the
// receiver wins, the rest defer silently (no energy, no failure). Senders
// that *cannot* hear the winner (hidden terminals) transmit anyway and
// collide at the receiver — exactly the residual gap to OPT the paper
// describes in Fig. 10.
//
// Overhearing: nodes decode traffic addressed to others; an overheard
// packet both delivers a copy and tells the listener that the transmitter
// already holds the packet, retiring the corresponding pending pair.
#pragma once

#include "ldcf/protocols/protocol.hpp"

namespace ldcf::protocols {

struct DbaoConfig {
  /// How many of a receiver's best in-neighbors take responsibility for it
  /// (its ETX-tree parent is always added on top). Two is the sweet spot on
  /// GreenOrbs-scale traces: one more halves neither delay nor loss but
  /// inflates duplicates, one fewer loses the multi-path rescue.
  std::size_t responsible_senders = 2;
  /// Carrier-sense reach as a multiple of the longest usable link. Smaller
  /// values leave more hidden-terminal pairs (ablation knob).
  double cs_range_factor = 1.3;
  /// Disable the deterministic back-off entirely (ablation: contention is
  /// then resolved only by random collision backoff).
  bool deterministic_backoff = true;
  /// Disable overhearing (ablation).
  bool overhearing = true;
};

class DbaoFlooding : public PendingSetProtocol {
 public:
  DbaoFlooding() = default;
  explicit DbaoFlooding(const DbaoConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return "dbao"; }
  [[nodiscard]] bool wants_overhearing() const override {
    return config_.overhearing;
  }

  void initialize(const SimContext& ctx) override;
  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override;

  void on_outcome(const TxResult& result, SlotIndex slot) override;
  void on_overhear(NodeId listener, NodeId sender, PacketId packet,
                   SlotIndex slot) override;

  /// All three proposal phases start from the FCFS pending candidates and
  /// draw no RNG, so slots with no pending work at the phase are inert
  /// (deferred_ is per-slot scratch, cleared at the next proposal).
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    return pending_next_busy_slot(from);
  }

 protected:
  /// DBAO approximates OPT's "receive from the best neighbor": only a
  /// receiver's few best (reachable) in-neighbors take responsibility for
  /// serving it, instead of every neighbor flooding at it.
  void enqueue_forwarding(NodeId node, PacketId packet, NodeId from) override;

  /// Carrier-sense test: energy detection reaches well beyond decoding
  /// range, so two senders coordinate if they are within cs_range_ meters
  /// (~1.3x the longest usable link) or share a decodable link.
  [[nodiscard]] bool carrier_sensed(NodeId a, NodeId b) const;

 private:
  DbaoConfig config_{};
  double cs_range_ = 0.0;
  /// responsible_[u] = receivers u serves (u is among their best senders),
  /// each with its link PRR and wake phase.
  std::vector<std::vector<PendTarget>> responsible_;
  /// Contenders that deferred this slot, per receiver: if the winner's
  /// transmission succeeds they overhear the exchange and cancel their own
  /// copy of that packet.
  std::vector<std::pair<NodeId, NodeId>> deferred_;  // (deferred sender, receiver)
  /// Per-slot scratch: this slot's FCFS candidates, and the semi-duplex
  /// marks of phase 3 (all-zero between proposals).
  struct Candidate {
    TxIntent intent;
    double prr = 0.0;
    bool suppressed = false;
  };
  std::vector<Candidate> candidates_;
  /// Candidates grouped by receiver: first_for_rx_[r] heads a list chained
  /// through next_same_rx_ in ascending candidate order.
  static constexpr std::uint32_t kNoCandidate = 0xffffffffU;
  std::vector<std::uint32_t> first_for_rx_;
  std::vector<std::uint32_t> next_same_rx_;
  std::vector<std::uint8_t> committed_tx_;
  std::vector<std::uint8_t> reserved_rx_;
};

}  // namespace ldcf::protocols
