// Cross-layer flooding — the paper's second future-work item (§VI):
// "utilize the opportunistic forwarding technique combined with the
// optimization of the duty cycle length to conduct a cross-layer design".
//
// The protocol layers OF-style opportunism on top of the full DBAO MAC
// machinery, with both sides aware of the duty-cycle configuration:
//  * MAC layer (inherited from DBAO): responsibility sets, deterministic
//    back-off inside carrier-sense range, overhearing cancellation,
//    semi-duplex resolution;
//  * opportunistic layer: a node with no scheduled obligation this slot may
//    gamble its newest packet toward an awake neighbor, but only when the
//    neighbor's expected remaining tree delay — computed from the
//    duty-cycled delay distribution, i.e. a quantity that scales with T —
//    still exceeds a period-denominated threshold, and only when no
//    carrier-sensed transmission already targets that neighbor (the MAC
//    veto the pure OF lacks).
//
// The result: DBAO's low failure count with OF-like early deliveries; see
// bench_extensions for the comparison.
#pragma once

#include <vector>

#include "ldcf/protocols/dbao.hpp"
#include "ldcf/protocols/gamble_index.hpp"

namespace ldcf::protocols {

/// The MAC layer is the default DbaoFlooding.
class CrossLayerFlooding final : public DbaoFlooding {
 public:
  /// Gamble only toward links at least this good.
  static constexpr double kMinLinkPrr = 0.4;
  /// Gamble only while the target's expected remaining tree delay exceeds
  /// this many periods (duty-aware gating: the threshold is denominated in
  /// T, so the opportunism window adapts to the duty-cycle configuration).
  static constexpr double kMinRemainingPeriods = 1.0;
  /// Confidence z for the remaining-delay quantile (as in OF).
  static constexpr double kQuantileZ = 0.84;

  [[nodiscard]] std::string_view name() const override { return "xlayer"; }

  void initialize(const SimContext& ctx) override;
  void on_generate(PacketId packet, SlotIndex slot) override;
  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override;

  /// Busy while any gamble window is open (the opportunistic layer may
  /// draw its decision Bernoulli); outside the windows only the inherited
  /// DBAO MAC traffic remains, indexed by the pending calendar.
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    const double window =
        kMinRemainingPeriods * static_cast<double>(ctx().duty.period);
    if (static_cast<double>(from) + window < gambles_.deadline()) return from;
    return DbaoFlooding::next_busy_slot(from);
  }

 private:
  /// Awake gamble links (every active slot of each receiver), the delay
  /// tree's quantiles, and the gambles already made.
  GambleIndex gambles_;
  // Per-slot scratch, reset after each proposal: nodes sending or
  // receiving a MAC-layer intent (N bytes), and this slot's gambles.
  std::vector<std::uint8_t> claimed_;
  std::vector<GambleIndex::Gamble> slot_gambles_;
};

}  // namespace ldcf::protocols
