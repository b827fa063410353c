// The experiment knobs every front-end shares: one range, choice list and
// help line per knob, bound under a flag name by the CLIs (flood_sim
// --duty, protocol_comparison's duty_percent) and under a key by the job
// spec (duty_pct), so they accept and reject exactly the same values.
#pragma once

#include "ldcf/common/options.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/topology/generators.hpp"

namespace ldcf::analysis::knobs {

using common::Knob;

/// The floor keeps the period T = 100 / duty at most 10,000 slots: every
/// per-period table is sized by T.
inline Knob duty_pct() {
  return Knob("PCT", "duty cycle: percent of slots a sensor is awake")
      .at_least(0.01)
      .at_most(100);
}
inline Knob coverage() {
  return Knob("F", "fraction of sensors a packet must reach to be covered")
      .above(0)
      .at_most(1);
}
inline Knob packets() {
  return Knob("M", "number of flooded packets").at_least(1);
}
inline Knob spacing() {
  return Knob("K", "slots between packet generations").at_least(1);
}
inline Knob slots_per_period() {
  return Knob("K", "active slots per working period").at_least(1);
}
inline Knob reps() {
  return Knob("R", "repetitions, seeds seed..seed+R-1").at_least(1);
}
inline Knob generator() {
  return Knob("", "topology generator").one_of(topology::generator_names());
}
inline Knob protocol() {
  return Knob("", "flooding protocol").one_of(protocols::protocol_names());
}
inline Knob channel_rng() {
  return Knob("", "channel draws: seq is the golden-pinned sequential "
                  "stream, keyed the order-independent slot-keyed draws")
      .one_of({"seq", "keyed"});
}

}  // namespace ldcf::analysis::knobs
