// Heartbeats: liveness records streamed while a run (or sweep) executes.
//
// A long parallel sweep is otherwise dark until it finishes; heartbeats
// make it observable from outside: each record is one JSON line (schema
// `ldcf.heartbeat.v1`) appended to a stream a human (or the future sweep
// server) can `tail -f`. The writer is shared by every trial worker, so a
// sweep's heartbeats interleave into a single chronological file.
//
// HeartbeatObserver is the one producer: attached to one engine run (the
// analysis layer attaches one per trial, see analysis::run_observed), it
// samples the run's progress (slots executed, packets covered, virtual-time
// rate, an ETA extrapolated from coverage progress) on a wall-clock
// interval, plus a final `done` record — so even a run too short to hit
// the interval leaves one record.
//
// Purely observational: heartbeats never affect simulation results.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "ldcf/common/types.hpp"
#include "ldcf/sim/observer.hpp"

namespace ldcf::obs {

/// One liveness sample. `eta_seconds` < 0 means "unknown" (serialized as
/// null).
struct HeartbeatRecord {
  std::uint64_t trial = 0;
  std::string label;  ///< e.g. protocol name, "run", "reduce".
  std::uint64_t slots = 0;  ///< virtual slots executed so far.
  std::uint64_t packets_covered = 0;
  std::uint64_t packets_total = 0;
  double wall_seconds = 0.0;   ///< since the producer started.
  double slots_per_sec = 0.0;  ///< virtual-time rate.
  double eta_seconds = -1.0;   ///< extrapolated remaining wall time.
  bool done = false;
};

/// Thread-safe JSONL sink: one `ldcf.heartbeat.v1` object per line, flushed
/// per record so `tail -f` sees them live.
class HeartbeatWriter {
 public:
  /// Appends to `path`; throws InvalidArgument if it cannot be opened.
  explicit HeartbeatWriter(const std::string& path);

  HeartbeatWriter(const HeartbeatWriter&) = delete;
  HeartbeatWriter& operator=(const HeartbeatWriter&) = delete;

  void write(const HeartbeatRecord& record);

 private:
  std::mutex mutex_;
  std::ofstream out_;
};

/// Samples one engine run's progress onto a HeartbeatWriter.
class HeartbeatObserver final : public sim::SimObserver {
 public:
  /// Emits at most one record per `interval_seconds` of wall time (plus
  /// the final `done` record). The writer is borrowed and must outlive the
  /// observer.
  HeartbeatObserver(HeartbeatWriter& writer, std::uint64_t trial,
                    std::string label, std::uint32_t packets_total,
                    double interval_seconds);

  void on_slot_begin(SlotIndex slot, std::span<const NodeId> active) override;
  void on_packet_covered(PacketId packet, SlotIndex covered_at) override;
  void on_run_end(const sim::SimResult& result) override;

 private:
  void emit(std::uint64_t slots, bool done);

  HeartbeatWriter& writer_;
  std::uint64_t trial_;
  std::string label_;
  std::uint32_t packets_total_;
  double interval_ns_;  ///< double: seconds x 1e9 can exceed uint64_t.
  std::uint64_t start_ns_ = 0;
  std::uint64_t last_emit_ns_ = 0;
  std::uint64_t slots_seen_ = 0;  ///< executed slots, for the clock stride.
  std::uint64_t covered_ = 0;
};

}  // namespace ldcf::obs
