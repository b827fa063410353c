#include "ldcf/obs/watchdog.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/sim/engine.hpp"

namespace ldcf::obs {

void write_health_report(std::ostream& out, const HealthDiagnostic& diag) {
  JsonWriter json(out);
  json.begin_object()
      .field("schema", "ldcf.health.v1")
      .field("invariant", diag.invariant)
      .field("message", diag.message)
      .field("slot", static_cast<std::uint64_t>(diag.slot))
      .field("slots_since_progress", diag.slots_since_progress)
      .field("wall_seconds_since_progress", diag.wall_seconds_since_progress)
      .field("packets_generated", diag.packets_generated)
      .field("packets_covered", diag.packets_covered)
      .field("tx_attempts", diag.tx_attempts)
      .field("tx_failures", diag.tx_failures);
  json.key("causes").begin_array();
  for (const std::string& cause : diag.causes) json.value(cause);
  json.end_array().end_object();
  out << '\n';
}

void write_health_report_file(const std::string& path,
                              const HealthDiagnostic& diag) {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_health_report(out, diag); });
}

WatchdogError::WatchdogError(HealthDiagnostic diag)
    : std::runtime_error("watchdog: " + diag.invariant + ": " + diag.message),
      diag_(std::move(diag)) {}

WatchdogObserver::WatchdogObserver(const WatchdogConfig& config)
    : config_(config), last_progress_wall_ns_(steady_now_ns()) {
  LDCF_REQUIRE(config_.stall_wall_seconds >= 0.0,
               "stall_wall_seconds must be non-negative");
}

double WatchdogObserver::wall_seconds_since_progress() const {
  return static_cast<double>(steady_now_ns() - last_progress_wall_ns_) * 1e-9;
}

void WatchdogObserver::progress(SlotIndex slot) {
  last_progress_slot_ = slot;
  executed_since_progress_ = 0;
  last_progress_wall_ns_ = steady_now_ns();
}

void WatchdogObserver::fail(std::string invariant, std::string message,
                            SlotIndex slot) {
  HealthDiagnostic diag;
  diag.invariant = std::move(invariant);
  diag.message = std::move(message);
  diag.slot = slot;
  diag.slots_since_progress = executed_since_progress_;
  diag.wall_seconds_since_progress = wall_seconds_since_progress();
  diag.packets_generated = generated_;
  diag.packets_covered = covered_;
  diag.tx_attempts = channel_.attempts;
  diag.tx_failures = channel_.failures();
  if (causes_ != nullptr) diag.causes = causes_->current_causes();
  throw WatchdogError(std::move(diag));
}

void WatchdogObserver::on_slot_begin(SlotIndex slot,
                                     std::span<const NodeId> /*active*/) {
  current_slot_ = slot;
  ++executed_since_progress_;
  // The wall budget is only consulted on executed slots (an observer never
  // hears from a truly hung stage), and checked sparsely so a watched run
  // does not pay a clock read per slot.
  if (config_.stall_slot_budget > 0 &&
      executed_since_progress_ > config_.stall_slot_budget) {
    std::ostringstream msg;
    msg << "no progress event in " << executed_since_progress_
        << " executed slots (budget " << config_.stall_slot_budget
        << "); last progress at slot " << last_progress_slot_;
    fail("stall", msg.str(), slot);
  }
  if (config_.stall_wall_seconds > 0.0 &&
      (executed_since_progress_ & 0x3f) == 0) {
    const double elapsed = wall_seconds_since_progress();
    if (elapsed > config_.stall_wall_seconds) {
      std::ostringstream msg;
      msg << "no progress event in " << elapsed << " s (budget "
          << config_.stall_wall_seconds << " s); last progress at slot "
          << last_progress_slot_;
      fail("stall", msg.str(), slot);
    }
  }
}

void WatchdogObserver::on_generate(PacketId /*packet*/, SlotIndex slot) {
  ++generated_;
  progress(slot);
}

void WatchdogObserver::on_tx_result(const sim::TxResult& result,
                                    SlotIndex /*slot*/) {
  channel_.record(result.outcome, result.duplicate);
}

void WatchdogObserver::on_delivery(NodeId /*node*/, PacketId /*packet*/,
                                   NodeId /*from*/, bool /*overheard*/,
                                   SlotIndex slot) {
  progress(slot);
}

void WatchdogObserver::on_packet_covered(PacketId packet,
                                         SlotIndex covered_at) {
  if (covered_at < last_covered_at_) {
    std::ostringstream msg;
    msg << "packet " << packet << " covered at slot " << covered_at
        << ", before the previous coverage at slot " << last_covered_at_;
    fail("monotonic", msg.str(), covered_at);
  }
  last_covered_at_ = covered_at;
  ++covered_;
  progress(covered_at);
}

void WatchdogObserver::on_run_end(const sim::SimResult& result) {
  for (std::size_t n = 0; n < result.energy.per_node.size(); ++n) {
    const double e = result.energy.per_node[n];
    if (!std::isfinite(e) || e < 0.0) {
      std::ostringstream msg;
      msg << "node " << n << " energy is " << e
          << " (must be finite and non-negative)";
      fail("run_end", msg.str(), result.metrics.end_slot);
    }
  }
  if (!std::isfinite(result.energy.total) || result.energy.total < 0.0) {
    fail("run_end", "total energy is non-finite or negative",
         result.metrics.end_slot);
  }
}

}  // namespace ldcf::obs
