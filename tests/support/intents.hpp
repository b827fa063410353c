// Unicast intents for hand-driven tests and benches: each carries the id
// of its link, looked up once, as the engine and the channel require.
#pragma once

#include "ldcf/sim/flooding_protocol.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::test_support {

/// The unicast of `packet` from `sender` to `receiver` over their link.
/// Throws std::bad_optional_access if there is no such link.
inline sim::TxIntent unicast(const topology::Topology& topo, NodeId sender,
                             NodeId receiver, PacketId packet) {
  return sim::TxIntent{sender, receiver, packet,
                       topo.link_id(sender, receiver).value()};
}

}  // namespace ldcf::test_support
