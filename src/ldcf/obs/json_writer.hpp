// Minimal streaming JSON emitter with comma/nesting management and string
// escaping. The single JSON writer behind every machine-readable artifact
// the project emits: run/sweep reports (obs/report.hpp, analysis/report.hpp),
// the bench harness, Chrome trace_event timelines (timeline.hpp),
// watchdog health diagnostics, and heartbeat JSONL records.
//
// Lives in the telemetry core (no dependency on sim/), so low-level
// subsystems like the timeline can serialize without pulling in the engine.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <utility>
#include <vector>

namespace ldcf::obs {

/// Minimal streaming JSON emitter: keeps a nesting stack and inserts
/// commas; the caller is responsible for well-formed key/value pairing
/// (LDCF_CHECKed where cheap).
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out);
  ~JsonWriter();

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Emit an object key; the next value/begin_* call is its value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text);
  JsonWriter& value(double number);  ///< non-finite values emit null.
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(std::uint32_t number);
  JsonWriter& value(bool flag);
  JsonWriter& null();

  /// key(name) + value(v) in one call.
  template <typename T>
  JsonWriter& field(std::string_view name, T&& v) {
    key(name);
    return value(std::forward<T>(v));
  }

 private:
  void comma();

  std::ostream& out_;
  std::vector<bool> has_item_;  ///< per open scope: emitted an item yet?
  bool key_pending_ = false;
};

}  // namespace ldcf::obs
