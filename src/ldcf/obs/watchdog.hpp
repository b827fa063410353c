// WatchdogObserver: live invariant monitoring for a running simulation.
//
// The engine's own guards (max_slots, LDCF_REQUIRE on intents) catch hard
// misuse, but a run can still go wrong *quietly*: a protocol that keeps the
// loop dense without ever delivering anything (a busy-loop stall), coverage
// that stops advancing, energy accounting that goes non-finite. The
// watchdog rides the observer stream and fails fast instead, throwing
// WatchdogError with a structured `ldcf.health.v1` diagnostic that callers
// (flood_sim --watchdog) serialize and turn into a distinct exit code.
//
// Invariants monitored:
//   * stall        no progress event (generation, fresh delivery — addressed
//                  or overheard — packet coverage) within a wall-clock budget
//                  and/or an executed-slot budget. Catches busy-loop stalls; an
//                  in-stage hang (no hooks firing at all) is out of an
//                  observer's reach — that is what heartbeats are for.
//   * monotonic    covered-packet count never decreases and on_packet_covered
//                  slots never move backwards.
//   * run_end      end-of-run structural checks: per-node and total energy
//                  finite and non-negative.
//
// The watchdog never mutates simulation state; attaching it cannot change
// results (it can only end the run early by throwing).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/sim/metrics.hpp"
#include "ldcf/sim/observer.hpp"

namespace ldcf::obs {

class TimeSeriesObserver;  // obs/timeseries.hpp: the cause feed.

struct WatchdogConfig {
  /// Wall-clock seconds without a progress event before declaring a stall;
  /// 0 disables the wall budget.
  double stall_wall_seconds = 0.0;
  /// Executed slots without a progress event before declaring a stall;
  /// 0 disables the slot budget. Deterministic (no clock), so tests and CI
  /// use this one.
  std::uint64_t stall_slot_budget = 0;
};

/// Structured diagnostic carried by WatchdogError and serialized as
/// `ldcf.health.v1`.
struct HealthDiagnostic {
  std::string invariant;  ///< "stall" | "monotonic" | "run_end".
  std::string message;    ///< human-readable explanation.
  SlotIndex slot = 0;     ///< slot the violation was detected at.
  std::uint64_t slots_since_progress = 0;
  double wall_seconds_since_progress = 0.0;
  std::uint64_t packets_generated = 0;
  std::uint64_t packets_covered = 0;
  std::uint64_t tx_attempts = 0;
  std::uint64_t tx_failures = 0;
  /// Anomaly findings of an attached TimeSeriesObserver (empty without one):
  /// e.g. "coverage_stall: no progress across 12 windows from slot 4096".
  std::vector<std::string> causes;
};

/// Serialize one diagnostic as an `ldcf.health.v1` JSON document.
void write_health_report(std::ostream& out, const HealthDiagnostic& diag);

/// File variant; throws InvalidArgument if `path` cannot be opened.
void write_health_report_file(const std::string& path,
                              const HealthDiagnostic& diag);

/// Thrown by WatchdogObserver when an invariant trips.
class WatchdogError : public std::runtime_error {
 public:
  explicit WatchdogError(HealthDiagnostic diag);

  [[nodiscard]] const HealthDiagnostic& diagnostic() const { return diag_; }

 private:
  HealthDiagnostic diag_;
};

class WatchdogObserver final : public sim::SimObserver {
 public:
  explicit WatchdogObserver(const WatchdogConfig& config);

  /// Attach a cause feed (borrowed; may be nullptr to detach). When an
  /// invariant trips, its current_causes() are copied into the diagnostic.
  void set_cause_source(const TimeSeriesObserver* source) { causes_ = source; }

  void on_slot_begin(SlotIndex slot, std::span<const NodeId> active) override;
  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_tx_result(const sim::TxResult& result, SlotIndex slot) override;
  void on_delivery(NodeId node, PacketId packet, NodeId from, bool overheard,
                   SlotIndex slot) override;
  void on_packet_covered(PacketId packet, SlotIndex covered_at) override;
  void on_run_end(const sim::SimResult& result) override;

 private:
  void progress(SlotIndex slot);
  [[noreturn]] void fail(std::string invariant, std::string message,
                         SlotIndex slot);
  [[nodiscard]] double wall_seconds_since_progress() const;

  WatchdogConfig config_;
  const TimeSeriesObserver* causes_ = nullptr;
  SlotIndex current_slot_ = 0;
  SlotIndex last_progress_slot_ = 0;
  std::uint64_t executed_since_progress_ = 0;
  std::uint64_t last_progress_wall_ns_ = 0;  ///< steady clock, ns.
  SlotIndex last_covered_at_ = 0;
  std::uint64_t generated_ = 0;
  std::uint64_t covered_ = 0;
  sim::ChannelCounters channel_;  ///< attempts and failures() for the report.
};

}  // namespace ldcf::obs
