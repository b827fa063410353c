// Timeline unit tests: lane registration, ring semantics, labels, the
// null-probe contract, and the Chrome trace_event JSON shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ldcf/obs/timeline.hpp"

namespace {

using namespace ldcf;

obs::SpanRecord make_span(const char* name, std::uint64_t start,
                          std::uint64_t dur) {
  obs::SpanRecord span;
  span.name = name;
  span.category = "test";
  span.start_ns = start;
  span.dur_ns = dur;
  return span;
}

TEST(Timeline, RecordsAppearInSnapshotInOrder) {
  obs::Timeline timeline;
  timeline.lane().record_span(make_span("a", 10, 5));
  timeline.lane().record_span(make_span("b", 20, 5));
  timeline.counter("track", 3.0);

  const auto lanes = timeline.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].spans.size(), 2u);
  EXPECT_STREQ(lanes[0].spans[0].name, "a");
  EXPECT_STREQ(lanes[0].spans[1].name, "b");
  ASSERT_EQ(lanes[0].counters.size(), 1u);
  EXPECT_STREQ(lanes[0].counters[0].track, "track");
  EXPECT_DOUBLE_EQ(lanes[0].counters[0].value, 3.0);
  EXPECT_EQ(lanes[0].dropped_spans, 0u);
  EXPECT_EQ(timeline.dropped_spans(), 0u);
}

TEST(Timeline, RingKeepsLatestWindowAndCountsDrops) {
  constexpr std::uint64_t kCap = obs::Timeline::kSpanCapacity;
  obs::Timeline timeline;
  // A full ring drops nothing...
  for (std::uint64_t i = 0; i < kCap; ++i) {
    timeline.lane().record_span(make_span("s", i, 1));
  }
  EXPECT_EQ(timeline.dropped_spans(), 0u);
  // ...and one span past it (65,537 in all) overwrites the oldest.
  timeline.lane().record_span(make_span("s", kCap, 1));
  EXPECT_EQ(timeline.dropped_spans(), 1u);
  for (std::uint64_t i = kCap + 1; i < kCap + 6; ++i) {
    timeline.lane().record_span(make_span("s", i, 1));
  }
  const auto lanes = timeline.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].spans.size(), kCap);
  // Oldest first within the surviving window: starts 6 .. kCap + 5.
  for (std::uint64_t i = 0; i < kCap; ++i) {
    ASSERT_EQ(lanes[0].spans[i].start_ns, 6 + i) << i;
  }
  EXPECT_EQ(lanes[0].dropped_spans, 6u);
  EXPECT_EQ(timeline.dropped_spans(), 6u);
}

TEST(Timeline, EachThreadGetsItsOwnLane) {
  obs::Timeline timeline;
  timeline.label_current_thread("main");
  timeline.lane().record_span(make_span("main-span", 1, 1));
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&timeline, w] {
      timeline.label_current_thread("worker-" + std::to_string(w));
      timeline.lane().record_span(make_span("worker-span", 2, 1));
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(timeline.num_lanes(), 4u);
  const auto lanes = timeline.snapshot();
  std::set<std::string> labels;
  std::set<std::uint32_t> tids;
  for (const auto& lane : lanes) {
    labels.insert(lane.label);
    tids.insert(lane.tid);
    EXPECT_EQ(lane.spans.size(), 1u);
  }
  EXPECT_EQ(labels, (std::set<std::string>{"main", "worker-0", "worker-1",
                                           "worker-2"}));
  EXPECT_EQ(tids.size(), 4u) << "lane tids must be distinct";
}

TEST(Timeline, LaterLabelWins) {
  obs::Timeline timeline;
  timeline.label_current_thread("first");
  timeline.label_current_thread("second");
  timeline.lane().record_span(make_span("s", 0, 1));
  const auto lanes = timeline.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0].label, "second");
}

TEST(TimelineSpan, NullTimelineIsANoOp) {
  // Must not crash, read a clock, or record anywhere.
  obs::TimelineSpan span(nullptr, "unused", "unused");
  span.arg0("n", 1);
  span.arg1("m", 2);
}

TEST(TimelineSpan, RecordsNameCategoryArgsAndDuration) {
  obs::Timeline timeline;
  {
    obs::TimelineSpan span(&timeline, "work", "cat", "items", 7);
    span.arg1("extra", 9);
  }
  const auto lanes = timeline.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].spans.size(), 1u);
  const obs::SpanRecord& rec = lanes[0].spans[0];
  EXPECT_STREQ(rec.name, "work");
  EXPECT_STREQ(rec.category, "cat");
  EXPECT_STREQ(rec.arg0_name, "items");
  EXPECT_EQ(rec.arg0, 7u);
  EXPECT_STREQ(rec.arg1_name, "extra");
  EXPECT_EQ(rec.arg1, 9u);
}

TEST(Timeline, ChromeTraceHasEventsMetadataCountersAndSchema) {
  obs::Timeline timeline;
  timeline.label_current_thread("engine");
  {
    obs::TimelineSpan span(&timeline, "stage", "engine", "slot", 42);
  }
  timeline.counter("engine.packets_covered", 5.0);

  std::ostringstream out;
  timeline.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // thread_name.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span.
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter.
  EXPECT_NE(json.find("\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.packets_covered\""), std::string::npos);
  EXPECT_NE(json.find("\"slot\":42"), std::string::npos);
  EXPECT_NE(json.find("ldcf.timeline.v1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST(Timeline, CounterRingDropsAreCountedSeparately) {
  constexpr std::size_t kCap = obs::Timeline::kCounterCapacity;
  obs::Timeline timeline;
  for (std::size_t i = 0; i < kCap + 3; ++i) {
    timeline.counter("t", static_cast<double>(i));
  }
  const auto lanes = timeline.snapshot();
  ASSERT_EQ(lanes.size(), 1u);
  ASSERT_EQ(lanes[0].counters.size(), kCap);
  EXPECT_DOUBLE_EQ(lanes[0].counters[0].value, 3.0);
  EXPECT_DOUBLE_EQ(lanes[0].counters[kCap - 1].value,
                   static_cast<double>(kCap + 2));
  EXPECT_EQ(lanes[0].dropped_counters, 3u);
  EXPECT_EQ(lanes[0].dropped_spans, 0u);
  EXPECT_EQ(timeline.dropped_spans(), 0u);
}

}  // namespace
