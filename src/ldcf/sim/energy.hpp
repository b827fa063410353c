// Energy model and lifetime estimation.
//
// The paper's energy argument (§V-C2): receiver-side energy is set by the
// working schedule (active slots), successful-transmission energy is the
// same across protocols, so the differentiators are transmission failures
// and the duty-cycle operation itself. With per-sensor energy roughly
// linear in the duty ratio, lifetime scales ~ linearly with T while delay
// grows superlinearly — hence "it is NOT always beneficial to set the duty
// cycle extremely low".
#pragma once

#include <cstdint>
#include <vector>

#include "ldcf/common/types.hpp"

namespace ldcf::sim {

/// Per-slot/per-event energy costs in arbitrary charge units (relative
/// magnitudes follow CC2420-class radios where idle listening ~ reception).
struct EnergyModel {
  double listen_cost = 1.0;     ///< one active (listening) slot.
  double tx_cost = 1.2;         ///< one transmission attempt.
  double rx_cost = 1.0;         ///< one decoded reception (incl. overhear).
  double sleep_cost = 0.001;    ///< one dormant slot (timer only).
  double battery_capacity = 1.0e7;  ///< charge available per node.
};

/// Raw activity tallies per node, filled by the simulator.
struct ActivityTally {
  std::vector<std::uint64_t> active_slots;  ///< listening slots per node.
  std::vector<std::uint64_t> dormant_slots;
  std::vector<std::uint64_t> tx_attempts;
  std::vector<std::uint64_t> receptions;
};

/// Energy accounting derived from a tally.
struct EnergyReport {
  std::vector<double> per_node;  ///< consumed charge per node.
  double total = 0.0;
  double max_node = 0.0;  ///< hottest node (limits network lifetime).
};

/// Compute the report for a run of `slots` slots.
[[nodiscard]] EnergyReport compute_energy(const ActivityTally& tally,
                                          const EnergyModel& model);

/// Estimated network lifetime in slots: battery divided by the hottest
/// node's per-slot draw under steady duty-cycled operation.
[[nodiscard]] double estimate_lifetime_slots(const ActivityTally& tally,
                                             const EnergyModel& model,
                                             SlotIndex observed_slots);

/// Idle-network lifetime (no traffic): battery / per-slot schedule cost for
/// duty ratio 1/T — linear in T, the paper's lifetime-vs-delay tradeoff
/// baseline.
[[nodiscard]] double idle_lifetime_slots(DutyCycle duty,
                                         const EnergyModel& model);

}  // namespace ldcf::sim
