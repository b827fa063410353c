// Engine stage probe: where do the slot-loop cycles go, and when?
//
// SimEngine::run times each of its named stages (faults incl. the
// active-set scan, generation, intents, sync-miss, the channel kernel's
// gather/draw/apply phases plus the channel residual, energy, apply,
// coverage, plus the compact-time next-event/fast-forward step) through
// StageProfiler::Scope, and the whole slot loop through one "run" span.
// Both are obs::TimelineSpan, the one probe type, whose single pair of
// steady-clock reads feeds two optional sinks:
//   * a running total in the StageProfile (stage_ns, or wall_ns for the
//     loop), when profiling is on;
//   * a span on an attached obs::Timeline.
// With neither sink set — the default — a probe is one well-predicted
// branch and reads no clock, so the hot loop stays at its benched
// throughput. Because both sinks share the clock pair, each stage's span
// durations sum to exactly its profiler total.
//
// The profiling gate is SimConfig::profiling, off unless the caller sets it
// (flood_sim --report does). Neither sink touches simulation state or RNG
// draws: results are bit-identical with either on or off.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "ldcf/obs/timeline.hpp"

namespace ldcf::sim {

/// The engine's slot-loop stages, in execution order. The stages are
/// mutually exclusive (no probe nests inside another), so their timings sum
/// to at most the loop wall time: the channel stage is reported as its
/// three kernel phases — gather / draw / apply, timed inside
/// Channel::resolve — plus `channel`, which keeps the engine-side residual
/// (sync-miss and ghost result appends around the kernel).
enum class Stage : std::uint8_t {
  kFaults = 0,  ///< fault injection + active-set scan.
  kGeneration,
  kIntents,
  kSyncMiss,
  kChannel,        ///< channel-stage residual outside the kernel phases.
  kChannelGather,  ///< kernel phase 1: rules + SoA draw-batch build.
  kChannelDraw,    ///< kernel phase 2: Bernoulli realizations.
  kChannelApply,   ///< kernel phase 3: fixed-order result patch/reduce.
  kEnergy,
  kApply,
  kCoverage,
  kCompact,  ///< compact-time next-event query + fast-forward.
};

inline constexpr std::size_t kNumStages = 12;

/// Stage names, also the probe's span names (each view is a whole string
/// literal, so data() is NUL-terminated).
inline constexpr std::array<std::string_view, kNumStages> kStageNames = {
    "faults",         "generation",   "intents",
    "sync_miss",      "channel",      "channel_gather",
    "channel_draw",   "channel_apply", "energy",
    "apply",          "coverage",     "compact"};

/// Aggregated timings for one run (all zero when profiling was disabled).
/// Summable across runs: ns, slots and wall_ns all add.
struct StageProfile {
  bool enabled = false;
  std::array<std::uint64_t, kNumStages> stage_ns{};  ///< per-stage total.
  std::uint64_t wall_ns = 0;  ///< slot loop wall time, stages + dispatch.
  std::uint64_t slots = 0;    ///< slots executed.
  // Compact-time counters. Unlike the timings these are counted
  // unconditionally (they cost one add per gap, not a clock read), so they
  // report skipping behavior even with profiling off.
  std::uint64_t slots_skipped = 0;  ///< idle slots elided by fast-forward.
  std::uint64_t gaps = 0;           ///< number of fast-forward jumps.

  [[nodiscard]] std::uint64_t total_stage_ns() const {
    std::uint64_t total = 0;
    for (const std::uint64_t ns : stage_ns) total += ns;
    return total;
  }

  /// Slots simulated per wall-clock second; 0 when nothing was timed.
  [[nodiscard]] double slots_per_sec() const {
    if (wall_ns == 0) return 0.0;
    return static_cast<double>(slots) * 1e9 / static_cast<double>(wall_ns);
  }

  /// This stage's fraction of the summed stage time; 0 when untimed.
  [[nodiscard]] double stage_share(Stage stage) const {
    const std::uint64_t total = total_stage_ns();
    if (total == 0) return 0.0;
    return static_cast<double>(
               stage_ns[static_cast<std::size_t>(stage)]) /
           static_cast<double>(total);
  }

  /// Fold another run's timings into this one (used by reduce_trials).
  void merge(const StageProfile& other) {
    enabled = enabled || other.enabled;
    for (std::size_t s = 0; s < kNumStages; ++s) {
      stage_ns[s] += other.stage_ns[s];
    }
    wall_ns += other.wall_ns;
    slots += other.slots;
    slots_skipped += other.slots_skipped;
    gaps += other.gaps;
  }
};

/// Accumulates one run's stage timings and spans. Stages are timed through
/// Scope probes; with neither sink set the probes read no clock.
class StageProfiler {
 public:
  /// Start a run: `enabled` gates the totals, `timeline` (nullable)
  /// receives one span per probe.
  void reset(bool enabled, obs::Timeline* timeline = nullptr) {
    timeline_ = timeline;
    profile_ = StageProfile{};
    profile_.enabled = enabled;
  }

  /// The slot loop's total, for its "run" probe; null with profiling off.
  [[nodiscard]] std::uint64_t* wall_ns() { return sink(profile_.wall_ns); }

  /// Count the slots the loop executed (profiling on only, like the
  /// timings).
  void add_slots(std::uint64_t slots) {
    if (profile_.enabled) profile_.slots += slots;
  }

  /// Record one fast-forward jump over `skipped` idle slots. Ungated: the
  /// counters are part of the run's factual record, not a timing.
  void add_skip(std::uint64_t skipped) {
    profile_.slots_skipped += skipped;
    ++profile_.gaps;
  }

  [[nodiscard]] const StageProfile& profile() const { return profile_; }

  /// Times one stage from construction to destruction, with up to two
  /// numeric span args: a span named after the stage, summed into its
  /// stage total.
  class Scope : public obs::TimelineSpan {
   public:
    Scope(StageProfiler& profiler, Stage stage,
          const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
          const char* arg1_name = nullptr, std::uint64_t arg1 = 0)
        : TimelineSpan(
              profiler.timeline_,
              kStageNames[static_cast<std::size_t>(stage)].data(),
              stage >= Stage::kChannelGather && stage <= Stage::kChannelApply
                  ? "channel"
                  : "engine",
              arg0_name, arg0, arg1_name, arg1,
              profiler.sink(
                  profiler.profile_
                      .stage_ns[static_cast<std::size_t>(stage)])) {}
  };

 private:
  [[nodiscard]] std::uint64_t* sink(std::uint64_t& total) {
    return profile_.enabled ? &total : nullptr;
  }

  obs::Timeline* timeline_ = nullptr;
  StageProfile profile_;
};

}  // namespace ldcf::sim
