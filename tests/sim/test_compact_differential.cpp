// Differential proof that the compact-time engine is bit-identical to the
// dense engine. The fast path "skips slots it proved idle", which is
// exactly the kind of optimization that can silently diverge (a missed RNG
// draw desynchronizes every later draw), so SimConfig::compact_time
// defaults on only because this suite holds: dense and compact runs must
// agree on every RunMetrics field, the full per-node tallies and energy,
// StatsObserver registries (counters, histogram bins), and the
// bytes of JSONL traces — across all registered protocols, the paper's
// duty grid, perturbations on and off, randomized configs, and thread
// counts 1 vs 4.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/observer.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

topology::Topology small_topology(std::uint64_t seed, std::uint32_t sensors) {
  topology::ClusterConfig config;
  config.base.num_sensors = sensors;
  config.base.area_side_m = 220.0;
  config.base.seed = seed;
  config.num_clusters = 4;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

void expect_identical_results(const sim::SimResult& dense,
                              const sim::SimResult& compact) {
  // RunMetrics, field by field.
  EXPECT_EQ(dense.metrics.end_slot, compact.metrics.end_slot);
  EXPECT_EQ(dense.metrics.all_covered, compact.metrics.all_covered);
  EXPECT_EQ(dense.metrics.truncated, compact.metrics.truncated);
  EXPECT_EQ(dense.metrics.coverage_target, compact.metrics.coverage_target);
  const auto& dc = dense.metrics.channel;
  const auto& cc = compact.metrics.channel;
  EXPECT_EQ(dc.attempts, cc.attempts);
  EXPECT_EQ(dc.delivered, cc.delivered);
  EXPECT_EQ(dc.duplicates, cc.duplicates);
  EXPECT_EQ(dc.losses, cc.losses);
  EXPECT_EQ(dc.collisions, cc.collisions);
  EXPECT_EQ(dc.receiver_busy, cc.receiver_busy);
  EXPECT_EQ(dc.broadcasts, cc.broadcasts);
  EXPECT_EQ(dc.sync_misses, cc.sync_misses);
  EXPECT_EQ(dc.overhear_deliveries, cc.overhear_deliveries);
  ASSERT_EQ(dense.metrics.packets.size(), compact.metrics.packets.size());
  for (std::size_t p = 0; p < dense.metrics.packets.size(); ++p) {
    const auto& a = dense.metrics.packets[p];
    const auto& b = compact.metrics.packets[p];
    EXPECT_EQ(a.packet, b.packet);
    EXPECT_EQ(a.generated_at, b.generated_at) << "packet " << p;
    EXPECT_EQ(a.first_tx_at, b.first_tx_at) << "packet " << p;
    EXPECT_EQ(a.covered_at, b.covered_at) << "packet " << p;
    EXPECT_EQ(a.deliveries, b.deliveries) << "packet " << p;
  }
  // Per-node tallies (this is where fast-forwarded listening accrual would
  // drift first) and the energy derived from them — exact, not tolerant.
  EXPECT_EQ(dense.tally.active_slots, compact.tally.active_slots);
  EXPECT_EQ(dense.tally.dormant_slots, compact.tally.dormant_slots);
  EXPECT_EQ(dense.tally.tx_attempts, compact.tally.tx_attempts);
  EXPECT_EQ(dense.tally.receptions, compact.tally.receptions);
  EXPECT_EQ(dense.energy.per_node, compact.energy.per_node);
  EXPECT_EQ(dense.energy.total, compact.energy.total);
  EXPECT_EQ(dense.energy.max_node, compact.energy.max_node);
}

void expect_identical_registries(const obs::MetricsRegistry& dense,
                                 const obs::MetricsRegistry& compact) {
  ASSERT_EQ(dense.counters().size(), compact.counters().size());
  for (const auto& [name, counter] : dense.counters()) {
    const auto it = compact.counters().find(name);
    ASSERT_NE(it, compact.counters().end()) << name;
    EXPECT_EQ(counter.value(), it->second.value()) << name;
  }
  ASSERT_EQ(dense.histograms().size(), compact.histograms().size());
  for (const auto& [name, hist] : dense.histograms()) {
    const auto it = compact.histograms().find(name);
    ASSERT_NE(it, compact.histograms().end()) << name;
    const obs::Histogram& other = it->second;
    EXPECT_EQ(hist.count(), other.count()) << name;
    EXPECT_EQ(hist.sum(), other.sum()) << name;
    EXPECT_EQ(hist.min(), other.min()) << name;
    EXPECT_EQ(hist.max(), other.max()) << name;
    ASSERT_EQ(hist.bin_width(), other.bin_width()) << name;
    ASSERT_EQ(hist.num_bins(), other.num_bins()) << name;
    for (std::size_t bin = 0; bin < hist.num_bins(); ++bin) {
      EXPECT_EQ(hist.bin_count(bin), other.bin_count(bin))
          << name << " bin " << bin;
    }
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// One dense-vs-compact comparison with StatsObserver attached to both.
void run_differential(const topology::Topology& topo,
                      const sim::SimConfig& base, const std::string& protocol) {
  sim::SimConfig dense = base;
  dense.compact_time = false;
  sim::SimConfig compact = base;
  compact.compact_time = true;

  auto dense_proto = protocols::make_protocol(protocol);
  obs::StatsObserver dense_stats(topo.num_nodes(), base.num_packets);
  const sim::SimResult dense_res =
      sim::SimEngine(topo, dense).run(*dense_proto, &dense_stats);

  auto compact_proto = protocols::make_protocol(protocol);
  obs::StatsObserver compact_stats(topo.num_nodes(), base.num_packets);
  const sim::SimResult compact_res =
      sim::SimEngine(topo, compact).run(*compact_proto, &compact_stats);

  expect_identical_results(dense_res, compact_res);
  expect_identical_registries(dense_stats.registry(), compact_stats.registry());
}

sim::SimConfig grid_config(std::uint32_t period, bool perturbed) {
  sim::SimConfig config;
  config.num_packets = 5;
  config.duty = DutyCycle{period};
  config.seed = 17;
  config.packet_spacing = 3;
  config.max_slots = 30'000;
  if (perturbed) {
    config.capture_ratio = 2.0;
    config.sync_miss_prob = 0.05;
    config.perturbations.node_failures.push_back(sim::NodeFailure{9, 30});
    config.perturbations.burst = sim::LinkBurst{0.5, 40, 20, 160};
  }
  return config;
}

// The headline grid: every registered protocol x the paper's duty ratios
// {1%, 5%, 20%, 100%} (periods 100, 20, 5, 1) x perturbations off/on.
TEST(CompactDifferential, ProtocolDutyPerturbationGrid) {
  const topology::Topology topo = small_topology(5, 36);
  for (const std::string& protocol : protocols::protocol_names()) {
    for (const std::uint32_t period : {100u, 20u, 5u, 1u}) {
      for (const bool perturbed : {false, true}) {
        SCOPED_TRACE(protocol + " T=" + std::to_string(period) +
                     (perturbed ? " perturbed" : " baseline"));
        run_differential(topo, grid_config(period, perturbed), protocol);
      }
    }
  }
}

// Seeded random configs: vary everything the engine's slot loop branches
// on, so the fast path is exercised against schedules/faults/bursts it was
// not hand-tuned for.
TEST(CompactDifferential, RandomizedConfigs) {
  Rng rng(0xC0FFEE);
  const auto protocols_list = protocols::protocol_names();
  for (int trial = 0; trial < 14; ++trial) {
    const auto sensors = static_cast<std::uint32_t>(12 + rng.below(30));
    const topology::Topology topo =
        small_topology(100 + static_cast<std::uint64_t>(trial), sensors);
    sim::SimConfig config;
    config.duty = DutyCycle{static_cast<std::uint32_t>(1 + rng.below(64))};
    config.slots_per_period = static_cast<std::uint32_t>(
        1 + rng.below(std::min<std::uint64_t>(3, config.duty.period)));
    config.num_packets = static_cast<std::uint32_t>(2 + rng.below(6));
    config.packet_spacing = static_cast<std::uint32_t>(1 + rng.below(200));
    config.seed = rng.below(1'000'000);
    config.max_slots = 40'000;
    if (rng.bernoulli(0.5)) config.sync_miss_prob = 0.03;
    if (rng.bernoulli(0.5)) config.capture_ratio = 2.0;
    if (rng.bernoulli(0.5)) {
      const auto victim = static_cast<NodeId>(1 + rng.below(sensors - 1));
      config.perturbations.node_failures.push_back(
          sim::NodeFailure{victim, rng.below(2000)});
    }
    if (rng.bernoulli(0.5)) {
      const SlotIndex duration = 10 + rng.below(20);
      config.perturbations.burst = sim::LinkBurst{
          0.5, 30 + rng.below(100), duration, duration + rng.below(1000)};
    }
    const std::string& protocol =
        protocols_list[rng.below(protocols_list.size())];
    SCOPED_TRACE("trial " + std::to_string(trial) + " " + protocol +
                 " T=" + std::to_string(config.duty.period) +
                 " k=" + std::to_string(config.slots_per_period) +
                 " spacing=" + std::to_string(config.packet_spacing));
    run_differential(topo, config, protocol);
  }
}

// JSONL traces: the default elided trace must be byte-identical between
// dense and compact; include_idle_slots must force the engine dense (its
// verbatim slot enumeration cannot survive skipping) and therefore also be
// byte-identical.
TEST(CompactDifferential, TracesAreByteIdentical) {
  const topology::Topology topo = small_topology(5, 36);
  const sim::SimConfig base = grid_config(20, /*perturbed=*/true);
  for (const std::string& protocol : {std::string("dbao"), std::string("of"),
                                      std::string("naive")}) {
    SCOPED_TRACE(protocol);
    for (const bool include_idle : {false, true}) {
      SCOPED_TRACE(include_idle ? "include_idle" : "elided");
      const std::string dense_path = testing::TempDir() + "/dense-" +
                                     protocol +
                                     (include_idle ? "-idle" : "") + ".jsonl";
      const std::string compact_path = testing::TempDir() + "/compact-" +
                                       protocol +
                                       (include_idle ? "-idle" : "") +
                                       ".jsonl";
      sim::SimConfig dense = base;
      dense.compact_time = false;
      sim::SimConfig compact = base;
      compact.compact_time = true;

      auto p1 = protocols::make_protocol(protocol);
      {
        sim::TraceObserver trace(dense_path, include_idle);
        (void)sim::SimEngine(topo, dense).run(*p1, &trace);
      }
      auto p2 = protocols::make_protocol(protocol);
      sim::SimResult compact_res;
      {
        sim::TraceObserver trace(compact_path, include_idle);
        compact_res = sim::SimEngine(topo, compact).run(*p2, &trace);
      }
      const std::string dense_bytes = slurp(dense_path);
      ASSERT_FALSE(dense_bytes.empty());
      EXPECT_EQ(dense_bytes, slurp(compact_path));
      if (include_idle) {
        // The elision contract: an every-slot observer pins the engine to
        // the dense path, so nothing may have been skipped.
        EXPECT_EQ(compact_res.profile.slots_skipped, 0u);
        EXPECT_EQ(compact_res.profile.gaps, 0u);
      } else {
        EXPECT_GT(compact_res.profile.slots_skipped, 0u);
      }
    }
  }
}

// Thread axis: run_point fans repetitions out over worker threads with an
// index-ordered reduction, so for each engine mode threads=1 and threads=4
// must agree bit-for-bit — and the two modes must agree with each other.
TEST(CompactDifferential, ThreadCountOneVsFour) {
  const topology::Topology topo = small_topology(5, 36);
  for (const std::string& protocol :
       {std::string("dbao"), std::string("flash")}) {
    SCOPED_TRACE(protocol);
    analysis::ProtocolPoint points[2][2];  // [compact][threads==4]
    for (const bool compact : {false, true}) {
      for (const bool four : {false, true}) {
        analysis::ExperimentConfig config;
        config.base = grid_config(20, /*perturbed=*/true);
        config.base.compact_time = compact;
        config.repetitions = 4;
        config.threads = four ? 4 : 1;
        config.trial.collect_stats = true;
        points[compact][four] =
            analysis::run_point(topo, protocol, config.base.duty, config);
      }
    }
    for (const auto& [a, b] :
         std::vector<std::pair<const analysis::ProtocolPoint*,
                               const analysis::ProtocolPoint*>>{
             {&points[0][0], &points[0][1]},   // dense: 1 vs 4 threads.
             {&points[1][0], &points[1][1]},   // compact: 1 vs 4 threads.
             {&points[0][0], &points[1][0]},   // threads=1: dense vs compact.
             {&points[0][1], &points[1][1]}}) {  // threads=4: dense vs compact.
      EXPECT_EQ(a->mean_delay, b->mean_delay);
      EXPECT_EQ(a->delay_stddev, b->delay_stddev);
      EXPECT_EQ(a->failures, b->failures);
      EXPECT_EQ(a->attempts, b->attempts);
      EXPECT_EQ(a->duplicates, b->duplicates);
      EXPECT_EQ(a->energy_total, b->energy_total);
      EXPECT_EQ(a->all_covered, b->all_covered);
      EXPECT_EQ(a->truncated, b->truncated);
      expect_identical_registries(a->metrics, b->metrics);
    }
  }
}

// Re-running one engine replays the identical simulation in compact mode
// too (the compact bookkeeping is per-run state).
TEST(CompactDifferential, CompactEngineRunsAreReplayable) {
  const topology::Topology topo = small_topology(5, 36);
  sim::SimConfig config = grid_config(20, /*perturbed=*/false);
  sim::SimEngine engine(topo, config);
  auto p1 = protocols::make_protocol("dbao");
  auto p2 = protocols::make_protocol("dbao");
  const sim::SimResult first = engine.run(*p1);
  const sim::SimResult second = engine.run(*p2);
  expect_identical_results(first, second);
  EXPECT_EQ(first.profile.slots_skipped, second.profile.slots_skipped);
  EXPECT_EQ(first.profile.gaps, second.profile.gaps);
}

// Latent slot-indexed-state audit pins (see DESIGN.md §10): the only
// per-slot accruals in the engine are the listening tally (converted to the
// closed-form skip credit), the link burst (already a closed-form function
// of the absolute slot), and the death schedule (already event-indexed).
// This regression holds the closed forms to their per-slot definitions.
TEST(CompactDifferential, ClosedFormAccrualsMatchPerSlotDefinitions) {
  // LinkBurst::active_at must be a pure function of absolute slot index —
  // evaluate out of order and across period boundaries.
  const sim::LinkBurst burst{0.5, 30, 10, 100};
  for (const SlotIndex t : {0u, 29u, 30u, 35u, 39u, 40u, 129u, 130u, 139u,
                            1'000'035u}) {
    const SlotIndex phase = t < burst.first_start
                                ? burst.period  // never active before start.
                                : (t - burst.first_start) % burst.period;
    EXPECT_EQ(burst.active_at(t), phase < burst.duration) << "t=" << t;
  }
  // The listening credit: a run whose gaps were fast-forwarded must charge
  // each node exactly its wake slots in the skipped ranges. Checked
  // end-to-end: total listening + transmitting + dormant slots equals
  // end_slot for every node, in both engine modes.
  const topology::Topology topo = small_topology(5, 24);
  sim::SimConfig config = grid_config(25, /*perturbed=*/false);
  config.packet_spacing = 120;  // force real gaps.
  for (const bool compact : {false, true}) {
    config.compact_time = compact;
    auto proto = protocols::make_protocol("dbao");
    const sim::SimResult res = sim::SimEngine(topo, config).run(*proto);
    if (compact) {
      EXPECT_GT(res.profile.slots_skipped, 0u);
    }
    for (NodeId n = 0; n < topo.num_nodes(); ++n) {
      EXPECT_EQ(res.tally.active_slots[n] + res.tally.tx_attempts[n] +
                    res.tally.dormant_slots[n],
                res.metrics.end_slot)
          << "node " << n;
    }
  }
}

}  // namespace
