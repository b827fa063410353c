#include "ldcf/schedule/working_schedule.hpp"

#include <algorithm>
#include <utility>

#include "ldcf/common/error.hpp"

namespace ldcf::schedule {

ScheduleSet::ScheduleSet(std::size_t num_nodes, DutyCycle duty, Rng& rng,
                         std::uint32_t slots_per_period)
    : duty_(duty), slots_per_period_(slots_per_period), num_nodes_(num_nodes) {
  LDCF_REQUIRE(num_nodes >= 1, "need at least one node");
  LDCF_REQUIRE(duty.period >= 1, "period must be >= 1");
  LDCF_REQUIRE(slots_per_period >= 1 && slots_per_period <= duty.period,
               "active slots per period must be in [1, T]");
  slots_.reserve(num_nodes * slots_per_period);
  // Two samplers for k distinct slots out of T. Sparse k keeps the
  // historical rejection loop (its draw sequence is pinned by golden
  // tests); dense k (2k > T) switches to a partial Fisher-Yates shuffle,
  // because rejection degenerates toward the coupon-collector bound as
  // k -> T (unboundedly many draws for the last free slots).
  const bool dense = 2ull * slots_per_period > duty.period;
  std::vector<std::uint32_t> pool;
  if (dense) {
    pool.resize(duty.period);
    for (std::uint32_t i = 0; i < duty.period; ++i) pool[i] = i;
  }
  std::vector<std::uint32_t> node_slots;
  for (std::size_t n = 0; n < num_nodes; ++n) {
    node_slots.clear();
    if (dense) {
      // Exactly k draws per node. The pool stays permuted between nodes;
      // Fisher-Yates selects uniformly regardless of starting order.
      for (std::uint32_t i = 0; i < slots_per_period; ++i) {
        const auto j =
            i + static_cast<std::uint32_t>(rng.below(duty.period - i));
        std::swap(pool[i], pool[j]);
      }
      node_slots.assign(pool.begin(),
                        pool.begin() + static_cast<std::ptrdiff_t>(
                                           slots_per_period));
    } else {
      // Sample k distinct slots by rejection (k << T in practice).
      while (node_slots.size() < slots_per_period) {
        const auto slot = static_cast<std::uint32_t>(rng.below(duty.period));
        if (std::find(node_slots.begin(), node_slots.end(), slot) ==
            node_slots.end()) {
          node_slots.push_back(slot);
        }
      }
    }
    std::sort(node_slots.begin(), node_slots.end());
    slots_.insert(slots_.end(), node_slots.begin(), node_slots.end());
  }
  build_buckets();
}

ScheduleSet::ScheduleSet(std::vector<std::uint32_t> active_slots,
                         DutyCycle duty)
    : duty_(duty),
      slots_per_period_(1),
      num_nodes_(active_slots.size()),
      slots_(std::move(active_slots)) {
  LDCF_REQUIRE(num_nodes_ >= 1, "need at least one node");
  for (const auto slot : slots_) {
    LDCF_REQUIRE(slot < duty.period, "active slot outside period");
  }
  build_buckets();
}

void ScheduleSet::build_buckets() {
  // Counting sort by phase; filling in node order keeps each bucket
  // ascending.
  bucket_offsets_.assign(static_cast<std::size_t>(duty_.period) + 1, 0);
  for (const std::uint32_t slot : slots_) ++bucket_offsets_[slot + 1];
  for (std::uint32_t p = 0; p < duty_.period; ++p) {
    bucket_offsets_[p + 1] += bucket_offsets_[p];
  }
  bucket_nodes_.resize(slots_.size());
  std::vector<std::size_t> fill(bucket_offsets_.begin(),
                                bucket_offsets_.end() - 1);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    bucket_nodes_[fill[slots_[i]]++] =
        static_cast<NodeId>(i / slots_per_period_);
  }
}

std::span<const NodeId> ScheduleSet::active_nodes_at(SlotIndex t) const {
  const std::size_t phase = t % duty_.period;
  return {bucket_nodes_.data() + bucket_offsets_[phase],
          bucket_nodes_.data() + bucket_offsets_[phase + 1]};
}

}  // namespace ldcf::schedule
