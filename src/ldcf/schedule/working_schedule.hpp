// Working schedules — the active/dormant pattern of each sensor (§III-A).
//
// Under the paper's normalized duty-cycle model each sensor picks one active
// slot uniformly at random inside a period of T slots and repeats it forever;
// the duty ratio is 1/T. A generalized multi-slot variant (k distinct active
// slots per period, duty ratio k/T) is provided for experiments outside the
// paper's normalization. The source node is treated like every other node
// for receiving, but any node may *wake up to transmit* at any slot —
// receiving is what requires being active.
//
// Local synchronization (paper assumption) means every node knows its
// neighbors' schedules; `is_active` and `active_slot` are that knowledge.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/common/types.hpp"

namespace ldcf::schedule {

/// The periodic schedules of all nodes in a network.
class ScheduleSet {
 public:
  /// Random schedules with `slots_per_period` distinct active slots per
  /// node (1 = the paper's normalized model). Distinctness holds for every
  /// k up to the period: sparse k uses rejection sampling, dense k
  /// (2k > T) a partial Fisher-Yates shuffle with exactly k draws.
  ScheduleSet(std::size_t num_nodes, DutyCycle duty, Rng& rng,
              std::uint32_t slots_per_period = 1);

  /// Explicit single-slot schedules (active slot per node), for tests.
  ScheduleSet(std::vector<std::uint32_t> active_slots, DutyCycle duty);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] DutyCycle duty() const { return duty_; }
  [[nodiscard]] std::uint32_t period() const { return duty_.period; }
  [[nodiscard]] std::uint32_t slots_per_period() const {
    return slots_per_period_;
  }

  /// Actual duty ratio: slots_per_period / period.
  [[nodiscard]] double duty_ratio() const {
    return static_cast<double>(slots_per_period_) /
           static_cast<double>(duty_.period);
  }

  /// The primary (first) active slot of node `n`. Protocols that bucket
  /// obligations by wakeup phase use this slot; with multi-slot schedules
  /// it is a conservative choice (the node is active then, and possibly at
  /// other phases too).
  [[nodiscard]] std::uint32_t active_slot(NodeId n) const {
    LDCF_REQUIRE(n < num_nodes(), "node out of range");
    return slots_[static_cast<std::size_t>(n) * slots_per_period_];
  }

  /// All active slots of node `n`, ascending.
  [[nodiscard]] std::span<const std::uint32_t> active_slots(NodeId n) const {
    LDCF_REQUIRE(n < num_nodes(), "node out of range");
    return {slots_.data() + static_cast<std::size_t>(n) * slots_per_period_,
            slots_per_period_};
  }

  /// True iff node `n` is active (can receive) in absolute slot `t`.
  [[nodiscard]] bool is_active(NodeId n, SlotIndex t) const {
    const auto phase = static_cast<std::uint32_t>(t % duty_.period);
    if (slots_per_period_ == 1) return active_slot(n) == phase;
    const std::span<const std::uint32_t> slots = active_slots(n);
    return std::binary_search(slots.begin(), slots.end(), phase);
  }

  /// Nodes active in slot `t`, ascending by id: a view of the phase
  /// bucket, valid as long as the ScheduleSet lives.
  [[nodiscard]] std::span<const NodeId> active_nodes_at(SlotIndex t) const;

  /// Bytes the schedule's arrays hold: the cache charges this.
  [[nodiscard]] std::size_t memory_bytes() const {
    return slots_.size() * sizeof(std::uint32_t) +
           bucket_offsets_.size() * sizeof(std::size_t) +
           bucket_nodes_.size() * sizeof(NodeId);
  }

 private:
  void build_buckets();

  DutyCycle duty_{};
  std::uint32_t slots_per_period_ = 1;
  std::size_t num_nodes_ = 0;
  // Node n's k active slots, ascending: slots_[n * k, (n + 1) * k).
  std::vector<std::uint32_t> slots_;
  // Phase buckets as a CSR: the nodes active at phase p, ascending, are
  // bucket_nodes_[bucket_offsets_[p], bucket_offsets_[p + 1]).
  std::vector<std::size_t> bucket_offsets_;
  std::vector<NodeId> bucket_nodes_;
};

}  // namespace ldcf::schedule
