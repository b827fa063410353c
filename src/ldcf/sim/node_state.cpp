#include "ldcf/sim/node_state.hpp"

#include <algorithm>

#include "ldcf/common/error.hpp"

namespace ldcf::sim {

PossessionState::PossessionState(std::size_t num_nodes,
                                 std::uint32_t num_packets, NodeId source)
    : num_nodes_(num_nodes),
      num_packets_(num_packets),
      source_(source),
      bits_((num_nodes * num_packets + 63) / 64, 0),
      holders_(num_packets, 0),
      sensor_holders_(num_packets, 0) {
  LDCF_REQUIRE(num_nodes >= 1, "need at least one node");
  LDCF_REQUIRE(num_packets >= 1, "need at least one packet");
  LDCF_REQUIRE(source < num_nodes, "source out of range");
}

bool PossessionState::deliver(NodeId node, PacketId packet) {
  LDCF_REQUIRE(node < num_nodes_ && packet < num_packets_,
               "deliver out of range");
  const std::size_t i = index(node, packet);
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  std::uint64_t& word = bits_[i / 64];
  if (word & mask) return false;
  word |= mask;
  ++holders_[packet];
  if (node != source_) ++sensor_holders_[packet];
  return true;
}

std::uint64_t PossessionState::holders(PacketId packet) const {
  LDCF_REQUIRE(packet < num_packets_, "packet out of range");
  return holders_[packet];
}

std::uint64_t PossessionState::sensor_holders(PacketId packet) const {
  LDCF_REQUIRE(packet < num_packets_, "packet out of range");
  return sensor_holders_[packet];
}

void PossessionState::reset() {
  std::fill(bits_.begin(), bits_.end(), 0);
  std::fill(holders_.begin(), holders_.end(), 0);
  std::fill(sensor_holders_.begin(), sensor_holders_.end(), 0);
}

}  // namespace ldcf::sim
