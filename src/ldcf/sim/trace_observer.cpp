#include "ldcf/sim/trace_observer.hpp"

#include <istream>
#include <iterator>
#include <ostream>
#include <string_view>
#include <utility>

#include "ldcf/common/error.hpp"
#include "ldcf/common/parse.hpp"
#include "ldcf/obs/json_reader.hpp"
#include "ldcf/sim/engine.hpp"

namespace ldcf::sim {

namespace {

// Indexed by TxOutcome, in its declaration order.
constexpr std::string_view kOutcomeNames[] = {
    "delivered", "lost", "collision", "busy", "broadcast", "sync_miss"};
static_assert(static_cast<int>(TxOutcome::kSyncMiss) == 5);

const char* bool_name(bool value) { return value ? "true" : "false"; }

// The one writer of a trace line; parse_line below is its exact inverse.
void write_event(std::ostream& out, const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEvent::Kind::kSlotBegin:
      out << "{\"event\":\"slot_begin\",\"slot\":" << ev.slot
          << ",\"active\":" << ev.active << "}\n";
      return;
    case TraceEvent::Kind::kGenerate:
      out << "{\"event\":\"generate\",\"slot\":" << ev.slot
          << ",\"packet\":" << ev.packet << "}\n";
      return;
    case TraceEvent::Kind::kTx:
      out << "{\"event\":\"tx\",\"slot\":" << ev.slot
          << ",\"sender\":" << ev.sender << ",\"receiver\":";
      if (ev.receiver == kNoNode) {
        out << "null";
      } else {
        out << ev.receiver;
      }
      out << ",\"packet\":" << ev.packet << ",\"outcome\":\""
          << kOutcomeNames[static_cast<int>(ev.outcome)]
          << "\",\"duplicate\":" << bool_name(ev.duplicate) << "}\n";
      return;
    case TraceEvent::Kind::kDelivery:
      out << "{\"event\":\"delivery\",\"slot\":" << ev.slot
          << ",\"node\":" << ev.node << ",\"packet\":" << ev.packet
          << ",\"from\":" << ev.from
          << ",\"overheard\":" << bool_name(ev.overheard) << "}\n";
      return;
    case TraceEvent::Kind::kCovered:
      out << "{\"event\":\"covered\",\"packet\":" << ev.packet
          << ",\"slot\":" << ev.slot << "}\n";
      return;
    case TraceEvent::Kind::kRunEnd:
      out << "{\"event\":\"run_end\",\"end_slot\":" << ev.end_slot
          << ",\"all_covered\":" << bool_name(ev.all_covered)
          << ",\"truncated\":" << bool_name(ev.truncated) << "}\n";
      return;
  }
}

}  // namespace

TraceObserver::TraceObserver(const std::string& path, bool include_idle_slots)
    : file_(path, std::ios::trunc),
      out_(&file_),
      include_idle_slots_(include_idle_slots) {
  LDCF_REQUIRE(file_.is_open(), "cannot open trace file: " + path);
}

void TraceObserver::put(const TraceEvent& ev) {
  if (out_ == nullptr) {
    events_.push_back(ev);
  } else {
    write_event(*out_, ev);
  }
}

void TraceObserver::emit(const TraceEvent& ev) {
  if (ev.kind == TraceEvent::Kind::kSlotBegin && !include_idle_slots_) {
    pending_slot_ = ev;  // recorded once the slot proves non-idle.
    slot_pending_ = true;
    return;
  }
  // run_end does not rescue a trailing idle slot.
  if (std::exchange(slot_pending_, false) &&
      ev.kind != TraceEvent::Kind::kRunEnd) {
    put(pending_slot_);
  }
  put(ev);
}

void TraceObserver::on_slot_begin(SlotIndex slot,
                                  std::span<const NodeId> active) {
  emit({.kind = TraceEvent::Kind::kSlotBegin,
        .slot = slot,
        .active = active.size()});
}

void TraceObserver::on_generate(PacketId packet, SlotIndex slot) {
  emit({.kind = TraceEvent::Kind::kGenerate, .slot = slot, .packet = packet});
}

void TraceObserver::on_tx_result(const TxResult& result, SlotIndex slot) {
  emit({.kind = TraceEvent::Kind::kTx,
        .slot = slot,
        .sender = result.intent.sender,
        .receiver = result.intent.receiver,  // kNoNode == broadcast.
        .packet = result.intent.packet,
        .outcome = result.outcome,
        .duplicate = result.duplicate});
}

void TraceObserver::on_delivery(NodeId node, PacketId packet, NodeId from,
                                bool overheard, SlotIndex slot) {
  emit({.kind = TraceEvent::Kind::kDelivery,
        .slot = slot,
        .node = node,
        .from = from,
        .packet = packet,
        .overheard = overheard});
}

void TraceObserver::on_packet_covered(PacketId packet, SlotIndex covered_at) {
  emit({.kind = TraceEvent::Kind::kCovered,
        .slot = covered_at,
        .packet = packet});
}

void TraceObserver::on_run_end(const SimResult& result) {
  emit({.kind = TraceEvent::Kind::kRunEnd,
        .end_slot = result.metrics.end_slot,
        .all_covered = result.metrics.all_covered,
        .truncated = result.metrics.truncated});
  if (out_ != nullptr) out_->flush();
}

namespace {

// The member `key` of a parsed line; it must exist and have kind `kind`.
const obs::JsonValue& member(const obs::JsonValue& line, const char* key,
                             obs::JsonValue::Kind kind) {
  const obs::JsonValue* v = line.find(key);
  if (v == nullptr || v->kind != kind) {
    throw InvalidArgument(std::string(v == nullptr ? "missing" : "mistyped") +
                          " key '" + key + "'");
  }
  return *v;
}

TxOutcome parse_outcome(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kOutcomeNames); ++i) {
    if (name == kOutcomeNames[i]) return static_cast<TxOutcome>(i);
  }
  throw InvalidArgument("unknown tx outcome '" + std::string(name) + "'");
}

TraceEvent parse_line(std::string_view line) {
  const obs::JsonPtr doc = obs::parse_json(line);
  if (!doc->is_object()) throw InvalidArgument("not a JSON object");
  using JsonKind = obs::JsonValue::Kind;
  // Integers come from the raw number token: exact and range-checked, with
  // no double round trip, silent wrap or 32-bit truncation.
  const auto u64 = [&](const char* key) {
    return common::parse_u64(member(*doc, key, JsonKind::kNumber).text, key);
  };
  const auto u32 = [&](const char* key) {
    return common::parse_u32(member(*doc, key, JsonKind::kNumber).text, key);
  };
  const auto flag = [&](const char* key) {
    return member(*doc, key, JsonKind::kBool).boolean;
  };
  using Kind = TraceEvent::Kind;
  TraceEvent ev;
  std::size_t keys = 0;  // members the kind carries, "event" included.
  const std::string& kind = member(*doc, "event", JsonKind::kString).text;
  if (kind == "slot_begin") {
    ev = {.kind = Kind::kSlotBegin,
          .slot = u64("slot"),
          .active = u64("active")};
    keys = 3;
  } else if (kind == "generate") {
    ev = {.kind = Kind::kGenerate,
          .slot = u64("slot"),
          .packet = u32("packet")};
    keys = 3;
  } else if (kind == "tx") {
    const obs::JsonValue* receiver = doc->find("receiver");
    const bool broadcast =
        receiver != nullptr && receiver->kind == JsonKind::kNull;
    ev = {.kind = Kind::kTx,
          .slot = u64("slot"),
          .sender = u32("sender"),
          .receiver = broadcast ? kNoNode : u32("receiver"),
          .packet = u32("packet"),
          .outcome = parse_outcome(
              member(*doc, "outcome", JsonKind::kString).text),
          .duplicate = flag("duplicate")};
    keys = 7;
  } else if (kind == "delivery") {
    ev = {.kind = Kind::kDelivery,
          .slot = u64("slot"),
          .node = u32("node"),
          .from = u32("from"),
          .packet = u32("packet"),
          .overheard = flag("overheard")};
    keys = 6;
  } else if (kind == "covered") {
    ev = {.kind = Kind::kCovered,
          .slot = u64("slot"),
          .packet = u32("packet")};
    keys = 3;
  } else if (kind == "run_end") {
    ev = {.kind = Kind::kRunEnd,
          .end_slot = u64("end_slot"),
          .all_covered = flag("all_covered"),
          .truncated = flag("truncated")};
    keys = 4;
  } else {
    throw InvalidArgument("unknown trace event kind '" + kind + "'");
  }
  if (doc->members.size() != keys) {
    throw InvalidArgument("unexpected key in a '" + kind + "' event");
  }
  return ev;
}

}  // namespace

std::vector<TraceEvent> read_event_trace(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    try {
      events.push_back(parse_line(line));
    } catch (const InvalidArgument& error) {
      throw InvalidArgument("event trace at line " + std::to_string(line_no) +
                            ": " + error.what());
    }
  }
  return events;
}

std::vector<TraceEvent> read_event_trace_file(const std::string& path) {
  std::ifstream in(path);
  LDCF_REQUIRE(in.is_open(), "cannot open trace file: " + path);
  return read_event_trace(in);
}

}  // namespace ldcf::sim
