// Engine event recording: in memory, or as JSONL.
//
// TraceObserver is the one recorder of the SimObserver event stream: it
// keeps TraceEvents in memory or writes each as one JSON object per line,
// cheap enough to attach to full sweeps and stable enough to diff across
// commits. read_event_trace parses the lines back into equal TraceEvents.
//
// Event lines (fields in emission order):
//   {"event":"slot_begin","slot":S,"active":K}
//   {"event":"generate","slot":S,"packet":P}
//   {"event":"tx","slot":S,"sender":A,"receiver":B|null,"packet":P,
//    "outcome":"delivered|lost|collision|busy|broadcast|sync_miss",
//    "duplicate":bool}
//   {"event":"delivery","slot":S,"node":N,"packet":P,"from":F,
//    "overheard":bool}
//   {"event":"covered","packet":P,"slot":C}
//   {"event":"run_end","end_slot":S,"all_covered":bool,"truncated":bool}
//
// By default idle slots are elided: a slot_begin is recorded only once
// the slot produces another event, which keeps low-duty-cycle traces (where
// most slots are empty) proportional to activity rather than to time.
#pragma once

#include <fstream>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/sim/flooding_protocol.hpp"
#include "ldcf/sim/observer.hpp"

namespace ldcf::sim {

/// One recorded (or parsed) trace event. Fields not present in the event's
/// kind keep their defaults.
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kSlotBegin,
    kGenerate,
    kTx,
    kDelivery,
    kCovered,
    kRunEnd,
  };

  Kind kind = Kind::kSlotBegin;
  SlotIndex slot = 0;            ///< all but run_end.
  std::uint64_t active = 0;      ///< slot_begin: active-node count.
  NodeId sender = kNoNode;       ///< tx.
  NodeId receiver = kNoNode;     ///< tx; kNoNode = broadcast (JSON null).
  NodeId node = kNoNode;         ///< delivery.
  NodeId from = kNoNode;         ///< delivery.
  PacketId packet = kNoPacket;   ///< generate/tx/delivery/covered.
  TxOutcome outcome = TxOutcome::kLostChannel;  ///< tx.
  bool duplicate = false;        ///< tx.
  bool overheard = false;        ///< delivery.
  SlotIndex end_slot = 0;        ///< run_end.
  bool all_covered = false;      ///< run_end.
  bool truncated = false;        ///< run_end.
};

/// Records engine events in memory or streams them as JSON lines.
class TraceObserver final : public SimObserver {
 public:
  /// Record in memory; read back with events() or take().
  explicit TraceObserver(bool include_idle_slots = false)
      : include_idle_slots_(include_idle_slots) {}

  /// Write to a caller-owned stream (kept open; caller flushes).
  explicit TraceObserver(std::ostream& out, bool include_idle_slots = false)
      : out_(&out), include_idle_slots_(include_idle_slots) {}

  /// Write to `path`, truncating it. Throws InvalidArgument if the file
  /// cannot be opened.
  explicit TraceObserver(const std::string& path,
                         bool include_idle_slots = false);
  /// A string literal would otherwise bind to the in-memory constructor.
  TraceObserver(const char* path, bool include_idle_slots = false) = delete;

  /// The in-memory recording (empty when streaming).
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  /// Move the recording out (the observer is empty afterwards).
  [[nodiscard]] std::vector<TraceEvent> take() {
    return std::exchange(events_, {});
  }

  void on_slot_begin(SlotIndex slot, std::span<const NodeId> active) override;
  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_tx_result(const TxResult& result, SlotIndex slot) override;
  void on_delivery(NodeId node, PacketId packet, NodeId from, bool overheard,
                   SlotIndex slot) override;
  void on_packet_covered(PacketId packet, SlotIndex covered_at) override;
  void on_run_end(const SimResult& result) override;

  /// A verbatim slot-by-slot trace cannot survive idle-slot elision, so it
  /// pins the engine to the dense path; the default elided trace is
  /// invariant under compact time and imposes nothing.
  [[nodiscard]] bool wants_every_slot() const override {
    return include_idle_slots_;
  }

 private:
  /// Every hook's one exit: applies the idle-slot elision rule (a
  /// slot_begin waits until its slot proves non-idle), then put()s.
  void emit(const TraceEvent& ev);
  /// Record `ev` in memory or write it as a line.
  void put(const TraceEvent& ev);

  std::ofstream file_;            ///< backing storage for the path constructor.
  std::ostream* out_ = nullptr;   ///< nullptr: record into events_.
  std::vector<TraceEvent> events_;
  bool include_idle_slots_;
  bool slot_pending_ = false;
  TraceEvent pending_slot_{};
};

/// Parse a JSONL event trace. Each line must be one JSON object carrying
/// exactly its kind's fields with the right types; integers must fit their
/// field (node and packet ids are 32-bit). Throws InvalidArgument naming
/// the line ("at line N") on the first malformed one. (Named to avoid
/// colliding with topology::read_trace_file, which reads link traces.)
[[nodiscard]] std::vector<TraceEvent> read_event_trace(std::istream& in);

/// File variant; throws InvalidArgument if the file cannot be opened.
[[nodiscard]] std::vector<TraceEvent> read_event_trace_file(
    const std::string& path);

}  // namespace ldcf::sim
