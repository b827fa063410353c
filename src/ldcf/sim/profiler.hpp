// Engine stage probe: where do the slot-loop cycles go, and when?
//
// SimEngine::run times each of its named stages (faults incl. the
// active-set scan, generation, intents, sync-miss, the channel kernel's
// gather/draw/apply phases plus the channel residual, energy, apply,
// coverage, plus the compact-time next-event/fast-forward step) through one
// probe, StageProfiler::Scope, which feeds two optional sinks from a single
// pair of steady_clock reads:
//   * the stage totals (StageProfile::stage_ns), when profiling is on;
//   * a span named after the stage on an attached obs::Timeline.
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
/// Scope RAII probes; with neither sink set the probes read no clock.
class StageProfiler {
 public:
  /// Start a run: `enabled` gates the stage totals, `timeline` (nullable)
  /// receives one span per probe.
  void reset(bool enabled, obs::Timeline* timeline = nullptr) {
    enabled_ = enabled;
    timeline_ = timeline;
    profile_ = StageProfile{};
    profile_.enabled = enabled;
  }

  /// Clock reading for add_wall; 0 (and no clock read) with no sink set.
  [[nodiscard]] std::uint64_t now() const {
    return timed() ? obs::steady_now_ns() : 0;
  }

  /// Close the slot loop opened at `t0`: adds the loop wall time and the
  /// executed slots to the profile, and records the enclosing "run" span.
  void add_wall(std::uint64_t t0, std::uint64_t slots) {
    if (!timed()) return;
    const std::uint64_t ns = obs::steady_now_ns() - t0;
    if (enabled_) {
      profile_.wall_ns += ns;
      profile_.slots += slots;
    }
    if (timeline_ != nullptr) {
      obs::SpanRecord span;
      span.name = "run";
      span.category = "engine";
      span.arg0_name = "slots";
      span.arg0 = slots;
      record(span, t0, ns);
    }
  }

  /// Record one fast-forward jump over `skipped` idle slots. Ungated: the
  /// counters are part of the run's factual record, not a timing.
  void add_skip(std::uint64_t skipped) {
    profile_.slots_skipped += skipped;
    ++profile_.gaps;
  }

  [[nodiscard]] const StageProfile& profile() const { return profile_; }

  /// Times one stage from construction to destruction, with up to two
  /// numeric span args.
  class Scope {
   public:
    Scope(StageProfiler& profiler, Stage stage,
          const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
          const char* arg1_name = nullptr, std::uint64_t arg1 = 0)
        : profiler_(profiler),
          stage_(stage),
          t0_(profiler.now()),
          arg0_name_(arg0_name),
          arg0_(arg0),
          arg1_name_(arg1_name),
          arg1_(arg1) {}
    ~Scope() { profiler_.close(*this); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Set the second span arg once its value is known.
    void arg1(const char* name, std::uint64_t value) {
      arg1_name_ = name;
      arg1_ = value;
    }

   private:
    friend class StageProfiler;

    StageProfiler& profiler_;
    Stage stage_;
    std::uint64_t t0_;
    const char* arg0_name_;
    std::uint64_t arg0_;
    const char* arg1_name_;
    std::uint64_t arg1_;
  };

 private:
  [[nodiscard]] bool timed() const {
    return enabled_ || timeline_ != nullptr;
  }

  // One clock read closes the interval for both sinks.
  void close(const Scope& scope) {
    if (!timed()) return;
    const std::uint64_t ns = obs::steady_now_ns() - scope.t0_;
    const auto stage = static_cast<std::size_t>(scope.stage_);
    if (enabled_) profile_.stage_ns[stage] += ns;
    if (timeline_ == nullptr) return;
    obs::SpanRecord span;
    span.name = kStageNames[stage].data();
    span.category = scope.stage_ >= Stage::kChannelGather &&
                            scope.stage_ <= Stage::kChannelApply
                        ? "channel"
                        : "engine";
    span.arg0_name = scope.arg0_name_;
    span.arg0 = scope.arg0_;
    span.arg1_name = scope.arg1_name_;
    span.arg1 = scope.arg1_;
    record(span, scope.t0_, ns);
  }

  void record(obs::SpanRecord& span, std::uint64_t t0, std::uint64_t ns) {
    span.start_ns = t0 - timeline_->epoch_ns();
    span.dur_ns = ns;
    timeline_->lane().record_span(span);
  }

  bool enabled_ = false;
  obs::Timeline* timeline_ = nullptr;
  StageProfile profile_;
};

}  // namespace ldcf::sim
