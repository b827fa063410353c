#include "ldcf/obs/timeline.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>

#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/trace_event_writer.hpp"

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

std::size_t Timeline::num_lanes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.size();
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

std::uint64_t Timeline::dropped_spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& lane : lanes_) {
    const std::uint64_t cap = lane->spans_.size();
    dropped += lane->span_count_ - std::min(lane->span_count_, cap);
  }
  return dropped;
}

void Timeline::write_chrome_trace(std::ostream& out) const {
  TraceEventWriter writer(out);
  for (const auto& view : snapshot()) {
    writer.thread_metadata(view.tid, view.label);
    for (const auto& span : view.spans) writer.complete_event(view.tid, span);
    for (const auto& counter : view.counters) {
      writer.counter_event(view.tid, counter);
    }
  }
  writer.finish(dropped_spans());
}

void Timeline::write_chrome_trace_file(const std::string& path) const {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_chrome_trace(out); });
}

}  // namespace ldcf::obs
