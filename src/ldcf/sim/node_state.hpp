// Possession state: which node holds which packet (the engine's X_p vectors).
#pragma once

#include <cstdint>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/types.hpp"

namespace ldcf::sim {

/// Dense possession matrix with per-packet holder counts, backed by a flat
/// packed bitset (one word = 64 node-packet cells) so deliver/has are a
/// word index + mask away and reset() is a plain memset-style fill.
class PossessionState {
 public:
  PossessionState(std::size_t num_nodes, std::uint32_t num_packets,
                  NodeId source = 0);

  /// Mark `node` as holding `packet`; returns false if it already did.
  bool deliver(NodeId node, PacketId packet);

  [[nodiscard]] bool has(NodeId node, PacketId packet) const {
    LDCF_REQUIRE(node < num_nodes_ && packet < num_packets_,
                 "has out of range");
    const std::size_t i = index(node, packet);
    return ((bits_[i / 64] >> (i % 64)) & 1) != 0;
  }

  /// Number of nodes (incl. source) holding `packet`.
  [[nodiscard]] std::uint64_t holders(PacketId packet) const;

  /// Number of nominal sensors (excl. the source) holding `packet`.
  [[nodiscard]] std::uint64_t sensor_holders(PacketId packet) const;

  /// Forget every delivery (all counts back to zero), keeping the storage
  /// allocated. Lets an engine reuse one instance across runs.
  void reset();

 private:
  [[nodiscard]] std::size_t index(NodeId node, PacketId packet) const {
    return static_cast<std::size_t>(packet) * num_nodes_ + node;
  }

  std::size_t num_nodes_;
  std::uint32_t num_packets_;
  NodeId source_;
  std::vector<std::uint64_t> bits_;           // packet-major, 64 cells/word.
  std::vector<std::uint64_t> holders_;        // per packet.
  std::vector<std::uint64_t> sensor_holders_; // per packet, excl. source.
};

}  // namespace ldcf::sim
