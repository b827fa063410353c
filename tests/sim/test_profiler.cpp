#include "ldcf/sim/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ldcf/obs/timeline.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace ldcf::sim {
namespace {

TEST(StageProfile, StartsZeroAndSharesAreSafeOnEmpty) {
  const StageProfile profile;
  EXPECT_FALSE(profile.enabled);
  EXPECT_EQ(profile.total_stage_ns(), 0u);
  EXPECT_DOUBLE_EQ(profile.slots_per_sec(), 0.0);
  EXPECT_DOUBLE_EQ(profile.stage_share(Stage::kChannel), 0.0);
}

TEST(StageProfile, MergeSumsEveryField) {
  constexpr auto kCov = static_cast<std::size_t>(Stage::kCoverage);
  StageProfile a;
  a.enabled = true;
  a.stage_ns[0] = 100;
  a.stage_ns[kCov] = 50;
  a.wall_ns = 1000;
  a.slots = 10;
  StageProfile b;
  b.stage_ns[0] = 25;
  b.wall_ns = 500;
  b.slots = 5;
  a.merge(b);
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.stage_ns[0], 125u);
  EXPECT_EQ(a.stage_ns[kCov], 50u);
  EXPECT_EQ(a.total_stage_ns(), 175u);
  EXPECT_EQ(a.wall_ns, 1500u);
  EXPECT_EQ(a.slots, 15u);
  EXPECT_DOUBLE_EQ(a.slots_per_sec(), 15.0 * 1e9 / 1500.0);
  EXPECT_DOUBLE_EQ(a.stage_share(Stage::kFaults), 125.0 / 175.0);
  EXPECT_DOUBLE_EQ(a.stage_share(Stage::kCoverage), 50.0 / 175.0);
}

// The slot loop's probe as the engine opens it: a "run" span on the
// profiler's wall total, its slot count set as the loop ends.
void time_loop(StageProfiler& profiler, obs::Timeline* timeline,
               std::uint64_t slots, const auto& body) {
  obs::TimelineSpan run(timeline, "run", "engine", "slots", 0, nullptr, 0,
                        profiler.wall_ns());
  body();
  run.arg0("slots", slots);
  profiler.add_slots(slots);
}

TEST(StageProfiler, DisabledProfilerRecordsNothing) {
  StageProfiler profiler;
  profiler.reset(false);
  time_loop(profiler, nullptr, 42, [&] {
    StageProfiler::Scope timed(profiler, Stage::kChannel);
  });
  EXPECT_EQ(profiler.wall_ns(), nullptr);
  EXPECT_FALSE(profiler.profile().enabled);
  EXPECT_EQ(profiler.profile().total_stage_ns(), 0u);
  EXPECT_EQ(profiler.profile().slots, 0u);
}

TEST(StageProfiler, EnabledScopesAccumulateAndResetClears) {
  StageProfiler profiler;
  profiler.reset(true);
  time_loop(profiler, nullptr, 100, [&] {
    for (int i = 0; i < 100; ++i) {
      StageProfiler::Scope timed(profiler, Stage::kApply);
    }
  });
  EXPECT_TRUE(profiler.profile().enabled);
  EXPECT_EQ(profiler.profile().slots, 100u);
  EXPECT_GT(profiler.profile().wall_ns, 0u);
  EXPECT_GE(profiler.profile().wall_ns,
            profiler.profile().stage_ns[static_cast<std::size_t>(
                Stage::kApply)]);
  EXPECT_GT(profiler.profile().slots_per_sec(), 0.0);

  profiler.reset(false);
  EXPECT_EQ(profiler.profile().slots, 0u);
  EXPECT_EQ(profiler.profile().total_stage_ns(), 0u);
}

// One probe, two sinks: with both set, every span's duration is exactly the
// increment the same probe added to its stage total; with neither set, the
// probe records nothing anywhere.
TEST(StageProfiler, OneProbeFeedsTotalsAndSpansFromOneClockPair) {
  constexpr auto kDraw = static_cast<std::size_t>(Stage::kChannelDraw);
  obs::Timeline timeline;
  StageProfiler profiler;
  profiler.reset(true, &timeline);
  std::vector<std::uint64_t> increments;
  time_loop(profiler, &timeline, 50, [&] {
    for (std::uint64_t slot = 0; slot < 50; ++slot) {
      const std::uint64_t before = profiler.profile().stage_ns[kDraw];
      {
        StageProfiler::Scope timed(profiler, Stage::kChannelDraw, "slot",
                                   slot);
        timed.arg1("items", 2 * slot);
      }
      increments.push_back(profiler.profile().stage_ns[kDraw] - before);
    }
  });
  std::vector<obs::SpanRecord> spans;
  for (const auto& lane : timeline.snapshot()) {
    spans.insert(spans.end(), lane.spans.begin(), lane.spans.end());
  }
  // The loop's "run" span closes last, encloses every stage span, and is
  // exactly the loop total.
  ASSERT_EQ(spans.size(), increments.size() + 1);
  const obs::SpanRecord run = spans.back();
  spans.pop_back();
  EXPECT_STREQ(run.name, "run");
  EXPECT_EQ(run.arg0, 50u);
  EXPECT_EQ(run.dur_ns, profiler.profile().wall_ns);
  EXPECT_EQ(profiler.profile().slots, 50u);
  EXPECT_LE(run.start_ns, spans.front().start_ns);
  EXPECT_GE(run.start_ns + run.dur_ns,
            spans.back().start_ns + spans.back().dur_ns);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, "channel_draw");
    EXPECT_STREQ(spans[i].category, "channel");
    EXPECT_EQ(spans[i].dur_ns, increments[i]) << i;
    EXPECT_EQ(spans[i].arg0, i);
    EXPECT_EQ(spans[i].arg1, 2 * i);
  }

  // reset detaches the timeline: a probe with no sink registers no lane.
  obs::Timeline unused;
  profiler.reset(true, &unused);
  profiler.reset(false);
  time_loop(profiler, nullptr, 7, [&] {
    StageProfiler::Scope timed(profiler, Stage::kApply, "slot", 1);
  });
  EXPECT_EQ(profiler.wall_ns(), nullptr);
  EXPECT_EQ(profiler.profile().total_stage_ns(), 0u);
  EXPECT_EQ(profiler.profile().wall_ns, 0u);
  EXPECT_EQ(profiler.profile().slots, 0u);
  EXPECT_TRUE(unused.snapshot().empty());
}

TEST(StageNames, MatchTheEngineStageOrder) {
  ASSERT_EQ(kStageNames.size(), kNumStages);
  EXPECT_EQ(kStageNames[static_cast<std::size_t>(Stage::kFaults)], "faults");
  EXPECT_EQ(kStageNames[static_cast<std::size_t>(Stage::kCoverage)],
            "coverage");
}

// The profiler's core contract: timing the run must not change it.
TEST(EngineProfiling, ResultsAreBitIdenticalWithProfilingOnAndOff) {
  topology::ClusterConfig gen;
  gen.base.num_sensors = 40;
  gen.base.area_side_m = 200.0;
  gen.base.radio.path_loss_exponent = 3.3;
  gen.base.seed = 9;
  gen.num_clusters = 4;
  const topology::Topology topo = topology::make_clustered(gen);

  SimConfig config;
  config.num_packets = 6;
  config.duty = DutyCycle{10};
  config.seed = 3;
  config.max_slots = 2'000'000;

  for (const char* name : {"dbao", "opt"}) {
    SCOPED_TRACE(name);
    config.profiling = false;
    auto proto_off = protocols::make_protocol(name);
    const SimResult off = run_simulation(topo, config, *proto_off);
    config.profiling = true;
    auto proto_on = protocols::make_protocol(name);
    const SimResult on = run_simulation(topo, config, *proto_on);

    EXPECT_EQ(off.metrics.end_slot, on.metrics.end_slot);
    EXPECT_EQ(off.metrics.channel.attempts, on.metrics.channel.attempts);
    EXPECT_EQ(off.metrics.channel.delivered, on.metrics.channel.delivered);
    EXPECT_EQ(off.energy.total, on.energy.total);

    // Off: the timings stay all-zero (the skip counters are ungated — they
    // are facts about the run, not timings). On: executed plus skipped
    // slots account for the whole run, and the stage sum is bounded by the
    // loop wall time.
    EXPECT_FALSE(off.profile.enabled);
    EXPECT_EQ(off.profile.slots, 0u);
    EXPECT_EQ(off.profile.total_stage_ns(), 0u);
    EXPECT_EQ(off.profile.slots_skipped, on.profile.slots_skipped);
    EXPECT_TRUE(on.profile.enabled);
    EXPECT_EQ(on.profile.slots + on.profile.slots_skipped,
              on.metrics.end_slot);
    EXPECT_GT(on.profile.total_stage_ns(), 0u);
    EXPECT_GE(on.profile.wall_ns, on.profile.total_stage_ns());
    double share_sum = 0.0;
    for (std::size_t s = 0; s < kNumStages; ++s) {
      share_sum += on.profile.stage_share(static_cast<Stage>(s));
    }
    EXPECT_NEAR(share_sum, 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace ldcf::sim
