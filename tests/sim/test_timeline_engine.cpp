// Timeline <-> engine contract tests.
//
//  * Attaching a Timeline must not move a single RNG draw: every registered
//    protocol's run with tracing on is bit-identical to the bare run.
//  * Spans and the stage profiler must agree: one probe feeds both from
//    one clock pair, so per-stage span-duration sums equal the profiler's
//    stage totals exactly.
//  * Protocol setup is one "setup" span per run, outside the stages.
//  * The engine is the one counter-track probe: it publishes coverage,
//    in-flight, generated and every ChannelCounters field, with or without
//    a StatsObserver attached.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/profiler.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

topology::Topology small_topology(std::uint32_t sensors = 60) {
  topology::ClusterConfig config;
  config.base.num_sensors = sensors;
  config.base.area_side_m = 260.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 5;
  config.num_clusters = 6;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

sim::SimConfig base_config() {
  sim::SimConfig config;
  config.num_packets = 12;
  config.duty = DutyCycle{10};
  config.seed = 3;
  config.max_slots = 2'000'000;
  return config;
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  EXPECT_EQ(a.metrics.end_slot, b.metrics.end_slot);
  EXPECT_EQ(a.metrics.all_covered, b.metrics.all_covered);
  EXPECT_EQ(a.metrics.channel.attempts, b.metrics.channel.attempts);
  EXPECT_EQ(a.metrics.channel.delivered, b.metrics.channel.delivered);
  EXPECT_EQ(a.metrics.channel.duplicates, b.metrics.channel.duplicates);
  EXPECT_EQ(a.metrics.channel.losses, b.metrics.channel.losses);
  EXPECT_EQ(a.metrics.channel.collisions, b.metrics.channel.collisions);
  EXPECT_EQ(a.metrics.channel.overhear_deliveries,
            b.metrics.channel.overhear_deliveries);
  ASSERT_EQ(a.metrics.packets.size(), b.metrics.packets.size());
  for (std::size_t p = 0; p < a.metrics.packets.size(); ++p) {
    EXPECT_EQ(a.metrics.packets[p].covered_at, b.metrics.packets[p].covered_at);
    EXPECT_EQ(a.metrics.packets[p].deliveries, b.metrics.packets[p].deliveries);
  }
  EXPECT_EQ(a.energy.total, b.energy.total);  // bitwise, not NEAR.
  EXPECT_EQ(a.energy.max_node, b.energy.max_node);
}

// Determinism contract: tracing on == tracing off, bit-for-bit, for every
// registered protocol (the timeline-off side of the same runs is pinned
// against the golden fingerprints in test_golden_metrics.cpp).
TEST(TimelineEngine, TracingOnIsBitIdenticalForEveryProtocol) {
  const topology::Topology topo = small_topology();
  for (const std::string& name : protocols::protocol_names()) {
    SCOPED_TRACE(name);
    sim::SimConfig bare = base_config();
    const auto proto_bare = protocols::make_protocol(name);
    const sim::SimResult off = sim::run_simulation(topo, bare, *proto_bare);

    obs::Timeline timeline;
    sim::SimConfig traced = base_config();
    traced.timeline = &timeline;
    const auto proto_traced = protocols::make_protocol(name);
    const sim::SimResult on = sim::run_simulation(topo, traced, *proto_traced);

    expect_identical(off, on);
    EXPECT_GE(timeline.snapshot().size(), 1u);
  }
}

// Spans and the stage totals come from one probe reading one clock pair, so
// with no span dropped each stage's span sum equals its profiler total to
// the nanosecond. The envelope below — each stage's span sum within
// [25%, 110%] of its profiler total, for stages big enough that scheduling
// noise cannot dominate — is the looser form of the same contract.
TEST(TimelineEngine, SpanSumsTrackProfilerStageTotals) {
  // Sized so that several stages clear both gates below (0.2 ms in total,
  // 0.5 us per call) by a wide margin even on a fast host; nearer the gates,
  // whether any stage gets compared depends on the host's speed.
  const topology::Topology topo = small_topology(200);
  obs::Timeline timeline;
  sim::SimConfig config = base_config();
  config.num_packets = 24;
  config.profiling = true;
  config.timeline = &timeline;
  const auto proto = protocols::make_protocol("dbao");
  const sim::SimResult res = sim::run_simulation(topo, config, *proto);
  ASSERT_TRUE(res.profile.enabled);

  std::map<std::string, std::uint64_t> span_ns;
  std::map<std::string, std::uint64_t> span_count;
  std::uint64_t dropped = 0;
  for (const auto& lane : timeline.snapshot()) {
    EXPECT_EQ(lane.dropped_spans, 0u) << "ring too small for this run";
    dropped += lane.dropped_spans;
    for (const auto& span : lane.spans) {
      span_ns[span.name] += span.dur_ns;
      ++span_count[span.name];
    }
  }
  if (dropped == 0) {
    for (std::size_t s = 0; s < sim::kNumStages; ++s) {
      const auto it = span_ns.find(std::string(sim::kStageNames[s]));
      const std::uint64_t sum = it == span_ns.end() ? 0 : it->second;
      EXPECT_EQ(sum, res.profile.stage_ns[s]) << sim::kStageNames[s];
    }
  }

  std::size_t compared = 0;
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    const std::string name(sim::kStageNames[s]);
    const std::uint64_t profiler_total = res.profile.stage_ns[s];
    if (profiler_total < 200'000) continue;  // < 0.2 ms: noise-dominated.
    ASSERT_TRUE(span_ns.count(name) != 0)
        << "stage " << name << " has profiler time but no spans";
    // Spans and totals share each interval, so the span sum cannot run
    // over the profiler's.
    const double ratio = static_cast<double>(span_ns[name]) /
                         static_cast<double>(profiler_total);
    EXPECT_LT(ratio, 1.10) << name;
    // The ratio floor only holds where real work dominates the span's own
    // clock-read overhead (~50 ns/call): skip stages whose per-call
    // profiler mean is in the overhead regime.
    const std::uint64_t mean_ns = profiler_total / span_count[name];
    if (mean_ns < 500) continue;
    EXPECT_GT(ratio, 0.25) << name;
    ++compared;
  }
  EXPECT_GE(compared, 1u) << "run too fast to compare any stage";

  // Every executed-stage span name the profiler knows should have showed
  // up at least once (compact only when fast-forwarding happened).
  for (const char* name : {"faults", "generation", "intents", "sync_miss",
                           "channel", "energy", "apply", "coverage"}) {
    EXPECT_TRUE(span_ns.count(name) != 0) << name;
  }
}

// Protocol setup is visible without being a profiler stage: each run
// records one "setup" span, closed before that run's "run" span opens.
TEST(TimelineEngine, SetupSpanPrecedesEachRunSpan) {
  const topology::Topology topo = small_topology();
  obs::Timeline timeline;
  sim::SimConfig config = base_config();
  config.timeline = &timeline;
  const auto proto = protocols::make_protocol("of");
  sim::SimEngine engine(topo, config);
  (void)engine.run(*proto);
  (void)engine.run(*proto);

  std::vector<obs::SpanRecord> setups;
  std::vector<obs::SpanRecord> runs;
  for (const auto& lane : timeline.snapshot()) {
    EXPECT_EQ(lane.dropped_spans, 0u);
    for (const auto& span : lane.spans) {
      if (std::string(span.name) == "setup") setups.push_back(span);
      if (std::string(span.name) == "run") runs.push_back(span);
    }
  }
  ASSERT_EQ(setups.size(), 2u);
  ASSERT_EQ(runs.size(), 2u);
  for (std::size_t i = 0; i < setups.size(); ++i) {
    EXPECT_STREQ(setups[i].category, "engine");
    EXPECT_LE(setups[i].start_ns + setups[i].dur_ns, runs[i].start_ns);
  }
  EXPECT_GE(setups[1].start_ns, runs[0].start_ns + runs[0].dur_ns);
}

TEST(TimelineEngine, EngineEmitsBuiltinCounterTracks) {
  const topology::Topology topo = small_topology();
  obs::Timeline timeline;
  sim::SimConfig config = base_config();
  config.timeline = &timeline;
  const auto proto = protocols::make_protocol("opt");
  (void)sim::run_simulation(topo, config, *proto);

  std::set<std::string> tracks;
  double final_covered = -1.0;
  for (const auto& lane : timeline.snapshot()) {
    for (const auto& counter : lane.counters) {
      tracks.insert(counter.track);
      if (std::string(counter.track) == "engine.packets_covered") {
        final_covered = counter.value;
      }
    }
  }
  EXPECT_TRUE(tracks.count("engine.packets_covered") != 0);
  EXPECT_TRUE(tracks.count("engine.packets_in_flight") != 0);
  EXPECT_TRUE(tracks.count("engine.tx_attempts") != 0);
  EXPECT_DOUBLE_EQ(final_covered, 12.0) << "last sample = all covered";
}

// A sweep trial with a timeline but no stats (collect_stats off) gets the
// same tracks as any run, and each track's last sample is the run's final
// account.
TEST(TimelineEngine, RunTrialPublishesEveryChannelTrackWithoutStats) {
  const topology::Topology topo = small_topology();
  const auto bare_proto = protocols::make_protocol("of");
  const sim::SimResult res =
      sim::run_simulation(topo, base_config(), *bare_proto);

  obs::Timeline timeline;
  sim::SimConfig config = base_config();
  config.timeline = &timeline;
  const analysis::TrialOptions options;
  ASSERT_FALSE(options.collect_stats);
  (void)analysis::run_trial(topo, "of", config, options);

  std::map<std::string, double> last;
  for (const auto& lane : timeline.snapshot()) {
    EXPECT_EQ(lane.dropped_counters, 0u);
    for (const auto& counter : lane.counters) {
      last[counter.track] = counter.value;
    }
  }
  const sim::ChannelCounters& c = res.metrics.channel;
  const std::map<std::string, std::uint64_t> expected = {
      {"engine.packets_covered", 12},
      {"engine.packets_in_flight", 0},
      {"engine.packets_generated", 12},
      {"engine.tx_attempts", c.attempts},
      {"engine.tx_delivered", c.delivered},
      {"engine.tx_duplicates", c.duplicates},
      {"engine.tx_losses", c.losses},
      {"engine.tx_collisions", c.collisions},
      {"engine.tx_receiver_busy", c.receiver_busy},
      {"engine.tx_broadcasts", c.broadcasts},
      {"engine.tx_sync_misses", c.sync_misses},
      {"engine.overhear_deliveries", c.overhear_deliveries},
  };
  EXPECT_EQ(last.size(), expected.size());
  for (const auto& [track, value] : expected) {
    ASSERT_TRUE(last.count(track) != 0) << track;
    EXPECT_DOUBLE_EQ(last[track], static_cast<double>(value)) << track;
  }
  EXPECT_GT(c.attempts, 0u);
}

}  // namespace
