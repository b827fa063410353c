// Calendar queue over the duty-cycle period — the index behind compact time.
//
// The paper's §III "compact time scale" observation: in a low-duty-cycle
// network almost every slot is empty, so a simulator should only visit slots
// where some node can act. Because working schedules are periodic (period T,
// see working_schedule.hpp), "when can anything happen next" reduces to a
// per-phase occupancy count: bucket the pending work by phase (slot mod T)
// and the next busy slot >= t is the first phase at or after t mod T with a
// non-zero count. Protocols feed the calendar from their pending-set
// mutations; SimEngine consults it to fast-forward over provably idle gaps.
#pragma once

#include <cstdint>
#include <vector>

#include "ldcf/common/types.hpp"

namespace ldcf::schedule {

/// Per-phase occupancy counts over one duty-cycle period. add/remove are
/// O(1); next_busy_slot is O(T) worst case (one wrap of the period).
class PhaseCalendar {
 public:
  PhaseCalendar() = default;
  explicit PhaseCalendar(std::uint32_t period) { reset(period); }

  /// Reset to an empty calendar over `period` phases.
  void reset(std::uint32_t period) {
    counts_.assign(period, 0);
    total_ = 0;
  }

  [[nodiscard]] std::uint32_t period() const {
    return static_cast<std::uint32_t>(counts_.size());
  }

  /// Register `k` items at phase (O(1)).
  void add(std::uint32_t phase, std::uint64_t k = 1) {
    counts_[phase] += k;
    total_ += k;
  }

  /// Retire `k` items at phase (O(1)). Callers must not remove more than
  /// they added.
  void remove(std::uint32_t phase, std::uint64_t k = 1) {
    counts_[phase] -= k;
    total_ -= k;
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// Smallest slot t >= from whose phase has a non-zero count, or
  /// kNeverSlot when the calendar is empty. Never later than the true next
  /// occupied slot: occupancy is periodic, so scanning one period from
  /// `from` is exhaustive.
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const {
    if (total_ == 0) return kNeverSlot;
    const auto period = static_cast<SlotIndex>(counts_.size());
    for (SlotIndex i = 0; i < period; ++i) {
      const SlotIndex t = from + i;
      if (counts_[t % period] != 0) return t;
    }
    return kNeverSlot;  // unreachable while total_ > 0.
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Visit every phase (slot mod `period`) that occurs in the slots
/// [from, to), as visit(phase, count) with count = how many slots of the
/// range have that phase; nothing when to <= from. Whole periods add the
/// same count to every phase, so this is O(min(to - from, period)). The
/// compact-time fast-forward settles skipped gaps with it: the engine's
/// per-phase skip counters and the time series' windowed listen tally.
template <typename Visit>
void for_each_phase_in(std::uint32_t period, SlotIndex from, SlotIndex to,
                       Visit&& visit) {
  if (to <= from) return;
  const SlotIndex gap = to - from;
  const std::uint64_t whole = gap / period;
  const SlotIndex rem = gap % period;
  // After the whole periods, the residual rem slots touch the rem phases
  // starting at from's phase, wrapping at most once.
  const SlotIndex visits = whole > 0 ? period : rem;
  auto phase = static_cast<std::uint32_t>(from % period);
  for (SlotIndex i = 0; i < visits; ++i) {
    visit(phase, whole + (i < rem ? 1 : 0));
    if (++phase == period) phase = 0;
  }
}

}  // namespace ldcf::schedule
