// Timeline unit tests: lane registration, ring semantics, labels, the
// null-probe contract, and the Chrome trace_event JSON shape.
#include <gtest/gtest.h>

#include <algorithm>
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
}

TEST(Timeline, RingKeepsLatestWindowAndCountsDrops) {
  constexpr std::uint64_t kCap = obs::Timeline::kSpanCapacity;
  obs::Timeline timeline;
  // A full ring drops nothing...
  for (std::uint64_t i = 0; i < kCap; ++i) {
    timeline.lane().record_span(make_span("s", i, 1));
  }
  EXPECT_EQ(timeline.snapshot()[0].dropped_spans, 0u);
  // ...and one span past it (65,537 in all) overwrites the oldest.
  timeline.lane().record_span(make_span("s", kCap, 1));
  EXPECT_EQ(timeline.snapshot()[0].dropped_spans, 1u);
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

  EXPECT_EQ(timeline.snapshot().size(), 4u);
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

TEST(TimelineSpan, TotalSinkWithoutTimelineAccumulates) {
  // A total but no timeline: the probe still takes its clock pair and adds
  // each duration to the total, and records no span anywhere.
  std::uint64_t total = 0;
  std::uint64_t last = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    {
      obs::TimelineSpan span(nullptr, "work", "cat", "i", i, nullptr, 0,
                             &total);
      const std::uint64_t t0 = obs::steady_now_ns();
      while (obs::steady_now_ns() == t0) {
      }
    }
    EXPECT_GT(total, last) << i;
    last = total;
  }
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

TEST(Timeline, ChromeTraceBytesArePinned) {
  // Fixed records straight into a lane, so every byte of the export is
  // known: the lane label as thread metadata, spans in ring order (the
  // oldest one dropped) with their optional args and the "?"/"ldcf"
  // fallbacks for missing names, then counters, then the envelope's
  // schema stamp and drop count. Times are ns in, fractional µs out.
  constexpr std::uint64_t kCap = obs::Timeline::kSpanCapacity;
  obs::Timeline timeline;
  timeline.label_current_thread("engine");
  obs::Timeline::Lane& lane = timeline.lane();
  lane.record_span(make_span("dropped", 0, 1));
  for (std::uint64_t i = 0; i < kCap - 3; ++i) {
    lane.record_span(make_span("fill", 1000, 250));
  }
  obs::SpanRecord both = make_span("stage", 2500, 1500);
  both.category = "engine";
  both.arg0_name = "slot";
  both.arg0 = 42;
  both.arg1_name = "items";
  both.arg1 = 7;
  lane.record_span(both);
  lane.record_span(obs::SpanRecord{});  // no name, no category, no args.
  obs::SpanRecord second_only = make_span("draw", 4000, 500);
  second_only.category = "channel";
  second_only.arg1_name = "items";
  second_only.arg1 = 3;
  lane.record_span(second_only);
  lane.record_counter(obs::CounterRecord{"engine.packets_covered", 2000, 5.0});
  lane.record_counter(obs::CounterRecord{nullptr, 3500, 0.25});

  std::string expected =
      R"({"traceEvents":[{"ph":"M","pid":1,"tid":1,"name":"thread_name",)"
      R"("args":{"name":"engine"}})";
  for (std::uint64_t i = 0; i < kCap - 3; ++i) {
    expected +=
        R"(,{"ph":"X","pid":1,"tid":1,"name":"fill","cat":"test","ts":1,)"
        R"("dur":0.25})";
  }
  expected +=
      R"(,{"ph":"X","pid":1,"tid":1,"name":"stage","cat":"engine",)"
      R"("ts":2.5,"dur":1.5,"args":{"slot":42,"items":7}})"
      R"(,{"ph":"X","pid":1,"tid":1,"name":"?","cat":"ldcf","ts":0,"dur":0})"
      R"(,{"ph":"X","pid":1,"tid":1,"name":"draw","cat":"channel","ts":4,)"
      R"("dur":0.5,"args":{"items":3}})"
      R"(,{"ph":"C","pid":1,"tid":1,"name":"engine.packets_covered","ts":2,)"
      R"("args":{"value":5}})"
      R"(,{"ph":"C","pid":1,"tid":1,"name":"?","ts":3.5,"args":{"value":0.25}})"
      R"(],"displayTimeUnit":"ms","otherData":{"schema":"ldcf.timeline.v1",)"
      R"("dropped_records":1}})";

  std::ostringstream out;
  timeline.write_chrome_trace(out);
  const std::string json = out.str();
  // Report the first differing byte rather than two multi-MB strings.
  const auto diff = std::mismatch(json.begin(), json.end(), expected.begin(),
                                  expected.end());
  const auto at = static_cast<std::size_t>(diff.first - json.begin());
  EXPECT_EQ(json.size(), expected.size());
  EXPECT_TRUE(diff.first == json.end() && diff.second == expected.end())
      << "first difference at byte " << at << ": got '"
      << json.substr(at, 80) << "', expected '" << expected.substr(at, 80)
      << "'";
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

  // The trace's one drop count covers both rings.
  std::ostringstream out;
  timeline.write_chrome_trace(out);
  EXPECT_NE(out.str().find(R"("dropped_records":3})"), std::string::npos);
}

}  // namespace
