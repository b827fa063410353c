// Span-based timeline tracing: what every thread was doing, when.
//
// The stage totals (sim/profiler.hpp) answer "where did the cycles go" at
// the end of a run; the Timeline answers "what happened at 13.2 ms" —
// the question flooding pathologies (suppression storms, back-to-back wake
// floods, a stalled channel phase) are actually diagnosed with. Every
// instrumented region records a SpanRecord (name, category, start, duration,
// two numeric args) into a ring buffer owned by the recording thread;
// counter tracks (coverage, holders, tx outcomes) ride alongside as sampled
// CounterRecords. Every span comes from one probe, TimelineSpan below: the
// executor's trials and reductions, the engine's setup and slot loop, and
// (through StageProfiler::Scope) each engine stage and channel phase, where
// the same clock pair also feeds the stage totals. The whole capture
// flushes to Chrome trace_event JSON (write_chrome_trace) loadable in
// Perfetto / chrome://tracing.
//
// Concurrency model — single-producer lanes, quiescent flush:
//   * Each thread owns one Lane; only that thread ever writes it (the
//     thread-local cache in lane() makes the lookup one pointer compare on
//     the hot path, a mutex-guarded registration on first touch).
//   * Lanes are rings: when full they overwrite the oldest record, keeping
//     the *latest* window (the end of a run is where stalls live) and
//     counting drops honestly.
//   * snapshot()/write_chrome_trace() must only run while no instrumented
//     code is executing (after SimEngine::run returns, after worker joins).
//     Every producer handoff in the codebase already synchronizes through a
//     thread join (parallel_for_indexed), so the flush observes fully
//     written records without extra fences.
//
// Determinism contract: recording never touches simulation state or RNG —
// results are bit-identical with tracing on or off, enforced the same way
// profiling is (tests/sim/test_timeline_engine.cpp). With no Timeline
// attached and no total to add to (profiling off) every probe is one
// branch: zero clock reads, zero allocation on the hot path.
//
// Span names must be string literals (or otherwise outlive the Timeline):
// records store the pointer, not a copy — that is what keeps record() at a
// handful of stores.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ldcf::obs {

/// A raw steady-clock reading in nanoseconds: the clock behind every span,
/// stage timing, heartbeat and watchdog wall budget.
[[nodiscard]] inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One completed span. Fixed-size, no heap: names are borrowed pointers to
/// static strings, args are two optional (name, u64) pairs.
struct SpanRecord {
  const char* name = nullptr;      ///< e.g. "channel_draw" (static storage).
  const char* category = nullptr;  ///< "engine" | "channel" | "executor"
  std::uint64_t start_ns = 0;      ///< relative to the timeline epoch.
  std::uint64_t dur_ns = 0;
  const char* arg0_name = nullptr;  ///< nullptr = no arg.
  std::uint64_t arg0 = 0;
  const char* arg1_name = nullptr;
  std::uint64_t arg1 = 0;
};

/// One sampled counter value on a named track.
struct CounterRecord {
  const char* track = nullptr;  ///< e.g. "coverage.packets_covered".
  std::uint64_t ts_ns = 0;
  double value = 0.0;
};

/// Multi-lane span/counter collector. Thread-safe for recording (each
/// thread writes its own lane); snapshot/flush require quiescence (above).
class Timeline {
 public:
  static constexpr std::size_t kSpanCapacity = 1 << 16;     ///< per lane.
  static constexpr std::size_t kCounterCapacity = 1 << 14;  ///< per lane.

  /// Single-producer record ring. Obtain via Timeline::lane(); never share
  /// a Lane across threads.
  class Lane {
   public:
    void record_span(const SpanRecord& span) {
      spans_[static_cast<std::size_t>(span_count_ % spans_.size())] = span;
      ++span_count_;
    }
    void record_counter(const CounterRecord& counter) {
      counters_[static_cast<std::size_t>(counter_count_ % counters_.size())] =
          counter;
      ++counter_count_;
    }

   private:
    friend class Timeline;
    Lane(std::uint32_t tid, std::string label)
        : tid_(tid),
          label_(std::move(label)),
          spans_(kSpanCapacity),
          counters_(kCounterCapacity) {}

    std::uint32_t tid_;
    std::string label_;
    std::vector<SpanRecord> spans_;        ///< ring storage, fixed size.
    std::uint64_t span_count_ = 0;         ///< total ever recorded.
    std::vector<CounterRecord> counters_;  ///< ring storage, fixed size.
    std::uint64_t counter_count_ = 0;
  };

  /// Everything one lane captured, oldest record first, plus how much the
  /// ring had to drop to keep the latest window.
  struct LaneView {
    std::uint32_t tid = 0;
    std::string label;
    std::vector<SpanRecord> spans;
    std::vector<CounterRecord> counters;
    std::uint64_t dropped_spans = 0;
    std::uint64_t dropped_counters = 0;
  };

  Timeline();

  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// The calling thread's lane, creating and registering it on first use.
  /// Hot path after the first call: one thread-local pointer compare.
  [[nodiscard]] Lane& lane();

  /// Nanoseconds since the timeline epoch (steady clock; construction = 0).
  [[nodiscard]] std::uint64_t now_ns() const;

  /// The epoch as a raw steady_now_ns() reading, for probes that read the
  /// clock themselves: a reading r lies at r - epoch_ns().
  [[nodiscard]] std::uint64_t epoch_ns() const { return epoch_ns_; }

  /// Label the *calling thread's* lane in the exported trace (e.g.
  /// "engine", "trial-worker-3"). Later calls win.
  void label_current_thread(std::string label);

  /// Record a counter sample on the calling thread's lane.
  void counter(const char* track, double value) {
    CounterRecord rec;
    rec.track = track;
    rec.ts_ns = now_ns();
    rec.value = value;
    lane().record_counter(rec);
  }

  /// Copy out every lane's records in chronological (recording) order.
  /// Quiescence required: no thread may be recording during the call.
  [[nodiscard]] std::vector<LaneView> snapshot() const;

  /// Serialize the capture as Chrome trace_event JSON (Perfetto /
  /// chrome://tracing). Same quiescence requirement as snapshot().
  void write_chrome_trace(std::ostream& out) const;

  /// File variant; throws InvalidArgument if `path` cannot be opened.
  void write_chrome_trace_file(const std::string& path) const;

 private:
  [[nodiscard]] Lane& register_lane();

  std::uint64_t id_;  ///< process-unique; defeats address reuse in caches.
  std::uint64_t epoch_ns_;  ///< steady_now_ns() at construction.
  mutable std::mutex mutex_;  ///< guards lanes_ registration + label edits.
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread::id> lane_owners_;  ///< parallel to lanes_.
};

/// RAII span probe: the one way a region is timed. Takes one
/// steady_now_ns() pair and feeds two optional sinks from it: `total_ns`
/// (a running total the duration is added to) and `timeline` (a span at
/// t0 - epoch_ns() on the calling thread's lane). With neither set,
/// construction and destruction are a pointer check: no clock read, no
/// allocation, no lane.
class TimelineSpan {
 public:
  TimelineSpan(Timeline* timeline, const char* name, const char* category,
               const char* arg0_name = nullptr, std::uint64_t arg0 = 0,
               const char* arg1_name = nullptr, std::uint64_t arg1 = 0,
               std::uint64_t* total_ns = nullptr)
      : timeline_(timeline),
        total_ns_(total_ns),
        span_{name, category, 0, 0, arg0_name, arg0, arg1_name, arg1} {
    if (timeline_ != nullptr || total_ns_ != nullptr) {
      span_.start_ns = steady_now_ns();
    }
  }

  ~TimelineSpan() {
    if (timeline_ == nullptr && total_ns_ == nullptr) return;
    span_.dur_ns = steady_now_ns() - span_.start_ns;
    if (total_ns_ != nullptr) *total_ns_ += span_.dur_ns;
    if (timeline_ == nullptr) return;
    span_.start_ns -= timeline_->epoch_ns();
    timeline_->lane().record_span(span_);
  }

  TimelineSpan(const TimelineSpan&) = delete;
  TimelineSpan& operator=(const TimelineSpan&) = delete;

  /// Attach/overwrite args after construction (e.g. once a count is known).
  void arg0(const char* name, std::uint64_t value) {
    span_.arg0_name = name;
    span_.arg0 = value;
  }
  void arg1(const char* name, std::uint64_t value) {
    span_.arg1_name = name;
    span_.arg1 = value;
  }

 private:
  Timeline* timeline_;
  std::uint64_t* total_ns_;
  SpanRecord span_;
};

}  // namespace ldcf::obs
