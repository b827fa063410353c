#include "ldcf/obs/heartbeat.hpp"

#include "ldcf/common/error.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/sim/engine.hpp"

namespace ldcf::obs {

HeartbeatWriter::HeartbeatWriter(const std::string& path)
    : out_(path, std::ios::app) {
  if (!out_) {
    throw InvalidArgument("cannot open heartbeat file: " + path);
  }
}

void HeartbeatWriter::write(const HeartbeatRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter json(out_);
  json.begin_object()
      .field("schema", "ldcf.heartbeat.v1")
      .field("trial", record.trial)
      .field("label", record.label)
      .field("slots", record.slots)
      .field("packets_covered", record.packets_covered)
      .field("packets_total", record.packets_total)
      .field("wall_seconds", record.wall_seconds)
      .field("slots_per_sec", record.slots_per_sec);
  json.key("eta_seconds");
  if (record.eta_seconds < 0.0) {
    json.null();
  } else {
    json.value(record.eta_seconds);
  }
  json.field("done", record.done).end_object();
  out_ << '\n';
  out_.flush();  // each line must be visible to `tail -f` immediately.
}

HeartbeatObserver::HeartbeatObserver(HeartbeatWriter& writer,
                                     std::uint64_t trial, std::string label,
                                     std::uint32_t packets_total,
                                     double interval_seconds)
    : writer_(writer),
      trial_(trial),
      label_(std::move(label)),
      packets_total_(packets_total),
      interval_ns_(interval_seconds * 1e9) {
  LDCF_REQUIRE(interval_seconds > 0.0, "interval_seconds must be positive");
  start_ns_ = steady_now_ns();
  last_emit_ns_ = start_ns_;
}

void HeartbeatObserver::emit(std::uint64_t slots, bool done) {
  const std::uint64_t now = steady_now_ns();
  HeartbeatRecord rec;
  rec.trial = trial_;
  rec.label = label_;
  rec.slots = slots;
  rec.packets_covered = covered_;
  rec.packets_total = packets_total_;
  rec.wall_seconds = static_cast<double>(now - start_ns_) * 1e-9;
  rec.slots_per_sec =
      rec.wall_seconds > 0.0 ? static_cast<double>(slots) / rec.wall_seconds
                             : 0.0;
  // ETA extrapolated from coverage progress: remaining packets at the
  // observed per-packet pace. Unknown until the first packet covers.
  if (!done && covered_ > 0 && covered_ < packets_total_) {
    rec.eta_seconds = rec.wall_seconds *
                      (static_cast<double>(packets_total_) /
                           static_cast<double>(covered_) -
                       1.0);
  } else if (done || covered_ >= packets_total_) {
    rec.eta_seconds = 0.0;
  }
  rec.done = done;
  writer_.write(rec);
  last_emit_ns_ = now;
}

void HeartbeatObserver::on_slot_begin(SlotIndex slot,
                                      std::span<const NodeId> /*active*/) {
  // Check the clock sparsely: a heartbeat interval is seconds, slots are
  // microseconds. Count executed slots, not slot indices: compact time
  // skips most indices, so a multiple of the stride may never execute.
  static constexpr std::uint64_t kCheckStride = 1024;
  if (slots_seen_++ % kCheckStride != 0) return;
  const std::uint64_t now = steady_now_ns();
  if (static_cast<double>(now - last_emit_ns_) < interval_ns_) return;
  emit(slot, /*done=*/false);
}

void HeartbeatObserver::on_packet_covered(PacketId /*packet*/,
                                          SlotIndex /*covered_at*/) {
  ++covered_;
}

void HeartbeatObserver::on_run_end(const sim::SimResult& result) {
  emit(result.metrics.end_slot, /*done=*/true);
}

}  // namespace ldcf::obs
