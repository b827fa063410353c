#include "ldcf/obs/timeline.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <string_view>

#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/json_writer.hpp"

namespace ldcf::obs {

namespace {

// Per-thread cache: which Timeline the cached lane belongs to. A thread can
// record into different Timelines over its life (e.g. successive engine
// runs); the (owner, id) pair keeps the cache safe across that — the id
// catches a new Timeline reusing a destroyed one's address.
struct LaneCache {
  const Timeline* owner = nullptr;
  std::uint64_t owner_id = 0;
  Timeline::Lane* lane = nullptr;
};

thread_local LaneCache t_lane_cache;

std::uint64_t next_timeline_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

constexpr double kNsToUs = 1e-3;  // trace_event timestamps are microseconds.

// Opens one trace event: its phase, the single process, the lane's tid.
void event_header(JsonWriter& json, std::string_view ph, std::uint32_t tid) {
  json.begin_object();
  json.field("ph", ph);
  json.field("pid", std::uint64_t{1});
  json.field("tid", static_cast<std::uint64_t>(tid));
}

// ph "M" thread_name metadata: names lane `tid` in the trace UI.
void write_thread_name(JsonWriter& json, std::uint32_t tid,
                       std::string_view name) {
  event_header(json, "M", tid);
  json.field("name", "thread_name");
  json.key("args");
  json.begin_object();
  json.field("name", name);
  json.end_object();
  json.end_object();
}

// ph "X" complete event for one finished span.
void write_span(JsonWriter& json, std::uint32_t tid, const SpanRecord& span) {
  event_header(json, "X", tid);
  json.field("name", span.name != nullptr ? span.name : "?");
  json.field("cat", span.category != nullptr ? span.category : "ldcf");
  json.field("ts", static_cast<double>(span.start_ns) * kNsToUs);
  json.field("dur", static_cast<double>(span.dur_ns) * kNsToUs);
  if (span.arg0_name != nullptr || span.arg1_name != nullptr) {
    json.key("args");
    json.begin_object();
    if (span.arg0_name != nullptr) json.field(span.arg0_name, span.arg0);
    if (span.arg1_name != nullptr) json.field(span.arg1_name, span.arg1);
    json.end_object();
  }
  json.end_object();
}

// ph "C" counter sample.
void write_counter(JsonWriter& json, std::uint32_t tid,
                   const CounterRecord& counter) {
  event_header(json, "C", tid);
  json.field("name", counter.track != nullptr ? counter.track : "?");
  json.field("ts", static_cast<double>(counter.ts_ns) * kNsToUs);
  json.key("args");
  json.begin_object();
  json.field("value", counter.value);
  json.end_object();
  json.end_object();
}

}  // namespace

Timeline::Timeline() : id_(next_timeline_id()), epoch_ns_(steady_now_ns()) {}

std::uint64_t Timeline::now_ns() const { return steady_now_ns() - epoch_ns_; }

Timeline::Lane& Timeline::lane() {
  if (t_lane_cache.owner == this && t_lane_cache.owner_id == id_) {
    return *t_lane_cache.lane;
  }
  return register_lane();
}

Timeline::Lane& Timeline::register_lane() {
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mutex_);
  // A thread may come back to a Timeline it registered with earlier (its
  // thread_local cache now points at a different Timeline): reuse its lane.
  for (std::size_t i = 0; i < lane_owners_.size(); ++i) {
    if (lane_owners_[i] == self) {
      t_lane_cache = {this, id_, lanes_[i].get()};
      return *lanes_[i];
    }
  }
  const auto tid = static_cast<std::uint32_t>(lanes_.size() + 1);
  std::ostringstream label;
  label << "thread-" << tid;
  lanes_.emplace_back(
      std::unique_ptr<Lane>(new Lane(tid, label.str())));
  lane_owners_.push_back(self);
  t_lane_cache = {this, id_, lanes_.back().get()};
  return *lanes_.back();
}

void Timeline::label_current_thread(std::string label) {
  Lane& mine = lane();
  const std::lock_guard<std::mutex> lock(mutex_);
  mine.label_ = std::move(label);
}

std::vector<Timeline::LaneView> Timeline::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<LaneView> views;
  views.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    LaneView view;
    view.tid = lane->tid_;
    view.label = lane->label_;
    const std::uint64_t span_cap = lane->spans_.size();
    const std::uint64_t kept_spans = std::min(lane->span_count_, span_cap);
    view.dropped_spans = lane->span_count_ - kept_spans;
    view.spans.reserve(static_cast<std::size_t>(kept_spans));
    // Ring order: the oldest surviving record sits at count % capacity when
    // the ring has wrapped, at 0 otherwise.
    const std::uint64_t span_head =
        (lane->span_count_ > span_cap) ? lane->span_count_ % span_cap : 0;
    for (std::uint64_t i = 0; i < kept_spans; ++i) {
      view.spans.push_back(
          lane->spans_[static_cast<std::size_t>((span_head + i) % span_cap)]);
    }
    const std::uint64_t ctr_cap = lane->counters_.size();
    const std::uint64_t kept_ctrs = std::min(lane->counter_count_, ctr_cap);
    view.dropped_counters = lane->counter_count_ - kept_ctrs;
    view.counters.reserve(static_cast<std::size_t>(kept_ctrs));
    const std::uint64_t ctr_head =
        (lane->counter_count_ > ctr_cap) ? lane->counter_count_ % ctr_cap : 0;
    for (std::uint64_t i = 0; i < kept_ctrs; ++i) {
      view.counters.push_back(
          lane->counters_[static_cast<std::size_t>((ctr_head + i) % ctr_cap)]);
    }
    views.push_back(std::move(view));
  }
  return views;
}

// The "JSON Array Format" inside a {"traceEvents": [...]} envelope, as
// Perfetto and chrome://tracing read it: per lane its thread_name, spans
// and counters, all under pid 1 with the lane id as tid; then the schema
// stamp and the records both rings of every lane dropped.
void Timeline::write_chrome_trace(std::ostream& out) const {
  JsonWriter json(out);
  json.begin_object();
  json.key("traceEvents");
  json.begin_array();
  std::uint64_t dropped = 0;
  for (const auto& view : snapshot()) {
    dropped += view.dropped_spans + view.dropped_counters;
    write_thread_name(json, view.tid, view.label);
    for (const auto& span : view.spans) write_span(json, view.tid, span);
    for (const auto& counter : view.counters) {
      write_counter(json, view.tid, counter);
    }
  }
  json.end_array();
  json.field("displayTimeUnit", "ms");
  json.key("otherData");
  json.begin_object();
  json.field("schema", "ldcf.timeline.v1");
  json.field("dropped_records", dropped);
  json.end_object();
  json.end_object();
}

void Timeline::write_chrome_trace_file(const std::string& path) const {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_chrome_trace(out); });
}

}  // namespace ldcf::obs
