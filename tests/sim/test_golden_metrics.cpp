// Golden end-to-end fingerprints: every registered protocol on a fixed
// clustered topology and seed, pinned to the exact numbers the engine
// produced before the staged-SimEngine refactor. Any change in RNG draw
// order, stage sequencing, or accounting shows up here as a hard diff —
// bit-for-bit, not within-tolerance.
//
// The rows were generated by running the pre-refactor run_simulation on
// this exact topology/config; regenerate them only for a deliberate,
// documented behavior change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/observer.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

topology::Topology golden_topology() {
  topology::ClusterConfig config;
  config.base.num_sensors = 60;
  config.base.area_side_m = 260.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 5;
  config.num_clusters = 6;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

sim::SimConfig golden_config() {
  sim::SimConfig config;
  config.num_packets = 12;
  config.duty = DutyCycle{10};
  config.seed = 3;
  config.max_slots = 2'000'000;
  return config;
}

// Exercises the capture, sync-miss, node-failure, and link-burst paths (and
// the truncated flag: max_slots cuts these runs short on purpose).
sim::SimConfig perturbed_config() {
  sim::SimConfig config = golden_config();
  config.capture_ratio = 2.0;
  config.sync_miss_prob = 0.05;
  config.perturbations.node_failures.push_back(sim::NodeFailure{13, 40});
  config.perturbations.burst = sim::LinkBurst{0.5, 50, 25, 200};
  config.max_slots = 20'000;
  return config;
}

struct GoldenRow {
  const char* protocol;
  std::uint64_t end_slot;
  std::uint64_t coverage_target;
  bool all_covered;
  std::uint64_t attempts, delivered, duplicates, losses, collisions,
      receiver_busy, broadcasts, sync_misses, overhear_deliveries;
  std::uint64_t gen_sum, first_tx_sum, covered_sum, deliveries_sum;
  std::uint64_t active_sum, dormant_sum, tx_sum, rx_sum;
  double energy_total, energy_max_node;
};

const std::vector<GoldenRow> kBaselineRows = {
// baseline rows
    {"of",
     2794, 60, true,
     1118, 737, 17, 280, 66, 35, 0, 0, 0,
     66, 682, 14229, 720,
     16966, 152350, 1118, 737,
     19196.94999999999, 424.20600000000002},
    {"dbao",
     994, 60, true,
     1408, 1097, 419, 311, 0, 0, 0, 0, 42,
     66, 726, 5049, 720,
     5928, 53298, 1408, 1419,
     9089.8980000000029, 235.40299999999999},
    {"opt",
     367, 60, true,
     809, 699, 0, 110, 0, 0, 0, 0, 21,
     66, 682, 2844, 720,
     2201, 19377, 809, 762,
     3953.1770000000006, 97.090999999999994},
    {"naive",
     6004, 60, true,
     32795, 4869, 4149, 6278, 18091, 3557, 0, 0, 0,
     66, 682, 33287, 720,
     33593, 299856, 32795, 4869,
     78115.855999999985, 1898.0409999999999},
    {"xlayer",
     944, 60, true,
     1422, 1137, 463, 285, 0, 0, 0, 0, 46,
     66, 726, 5404, 720,
     5611, 50551, 1422, 1392,
     8759.9510000000009, 220.76600000000002},
    {"flash",
     45504, 60, true,
     90576, 0, 0, 0, 0, 0, 90576, 0, 720,
     66, 5239, 107053, 720,
     268524, 2416644, 90576, 34191,
     413822.84400000004, 7262.4360000000006},
};

const std::vector<GoldenRow> kPerturbedRows = {
// perturbed rows
    {"dbao",
     20000, 60, false,
     3430, 1079, 429, 2292, 0, 0, 0, 59, 48,
     66, 774, 81, 698,
     119821, 1096749, 3430, 1453,
     126486.74899999998, 4441.6019999999999},
    {"flash",
     20000, 60, false,
     49955, 0, 0, 0, 0, 0, 49955, 0, 706,
     66, 5623, 54608, 706,
     115151, 1054894, 49955, 17002,
     193153.89399999994, 3441.2339999999999},
    {"of",
     2525, 60, true,
     1437, 731, 23, 508, 104, 42, 0, 52, 0,
     66, 800, 12880, 708,
     15061, 137527, 1437, 731,
     17653.927000000003, 568.221},
    {"opt",
     834, 60, true,
     936, 688, 0, 206, 0, 0, 0, 42, 21,
     66, 912, 6658, 709,
     4973, 44965, 936, 779,
     6920.165, 189.273},
    {"xlayer",
     20000, 60, false,
     3371, 1048, 406, 2252, 0, 0, 0, 71, 56,
     66, 850, 87, 698,
     119832, 1096797, 3371, 1411,
     126384.99699999997, 4436.8019999999997},
};

void expect_matches(const GoldenRow& row, const sim::SimResult& res) {
  SCOPED_TRACE(row.protocol);
  EXPECT_EQ(res.metrics.end_slot, row.end_slot);
  EXPECT_EQ(res.metrics.coverage_target, row.coverage_target);
  EXPECT_EQ(res.metrics.all_covered, row.all_covered);
  EXPECT_EQ(res.metrics.truncated, !row.all_covered);

  const auto& c = res.metrics.channel;
  EXPECT_EQ(c.attempts, row.attempts);
  EXPECT_EQ(c.delivered, row.delivered);
  EXPECT_EQ(c.duplicates, row.duplicates);
  EXPECT_EQ(c.losses, row.losses);
  EXPECT_EQ(c.collisions, row.collisions);
  EXPECT_EQ(c.receiver_busy, row.receiver_busy);
  EXPECT_EQ(c.broadcasts, row.broadcasts);
  EXPECT_EQ(c.sync_misses, row.sync_misses);
  EXPECT_EQ(c.overhear_deliveries, row.overhear_deliveries);

  std::uint64_t gen_sum = 0;
  std::uint64_t first_tx_sum = 0;
  std::uint64_t covered_sum = 0;
  std::uint64_t deliveries_sum = 0;
  for (const auto& rec : res.metrics.packets) {
    gen_sum += rec.generated_at;
    if (rec.first_tx_at != kNeverSlot) first_tx_sum += rec.first_tx_at;
    if (rec.covered()) covered_sum += rec.covered_at;
    deliveries_sum += rec.deliveries;
  }
  EXPECT_EQ(gen_sum, row.gen_sum);
  EXPECT_EQ(first_tx_sum, row.first_tx_sum);
  EXPECT_EQ(covered_sum, row.covered_sum);
  EXPECT_EQ(deliveries_sum, row.deliveries_sum);

  std::uint64_t active_sum = 0;
  std::uint64_t dormant_sum = 0;
  std::uint64_t tx_sum = 0;
  std::uint64_t rx_sum = 0;
  for (std::size_t n = 0; n < res.tally.active_slots.size(); ++n) {
    active_sum += res.tally.active_slots[n];
    dormant_sum += res.tally.dormant_slots[n];
    tx_sum += res.tally.tx_attempts[n];
    rx_sum += res.tally.receptions[n];
  }
  EXPECT_EQ(active_sum, row.active_sum);
  EXPECT_EQ(dormant_sum, row.dormant_sum);
  EXPECT_EQ(tx_sum, row.tx_sum);
  EXPECT_EQ(rx_sum, row.rx_sum);

  EXPECT_DOUBLE_EQ(res.energy.total, row.energy_total);
  EXPECT_DOUBLE_EQ(res.energy.max_node, row.energy_max_node);
}

TEST(GoldenMetrics, EveryProtocolMatchesPinnedFingerprint) {
  const topology::Topology topo = golden_topology();
  for (const GoldenRow& row : kBaselineRows) {
    auto proto = protocols::make_protocol(row.protocol);
    expect_matches(row, sim::run_simulation(topo, golden_config(), *proto));
  }
}

TEST(GoldenMetrics, PerturbedRunsMatchPinnedFingerprint) {
  const topology::Topology topo = golden_topology();
  for (const GoldenRow& row : kPerturbedRows) {
    auto proto = protocols::make_protocol(row.protocol);
    expect_matches(row, sim::run_simulation(topo, perturbed_config(), *proto));
  }
}

TEST(GoldenMetrics, EngineMatchesWrapperAndRepeatsDeterministically) {
  const topology::Topology topo = golden_topology();
  sim::SimEngine engine(topo, golden_config());
  for (const GoldenRow& row : kBaselineRows) {
    SCOPED_TRACE(row.protocol);
    auto proto = protocols::make_protocol(row.protocol);
    expect_matches(row, engine.run(*proto));
    // Re-running the same engine replays the identical simulation.
    auto again = protocols::make_protocol(row.protocol);
    expect_matches(row, engine.run(*again));
  }
}

// Observation must be free: attaching the full telemetry fan-out (stats +
// windowed series + watchdog through a MultiObserver) and enabling the
// stage profiler must not move a single RNG draw or force the dense path,
// so the pinned fingerprints hold bit-for-bit.
TEST(GoldenMetrics, FingerprintsSurviveObserversAndProfiling) {
  const topology::Topology topo = golden_topology();
  sim::SimConfig config = golden_config();
  config.profiling = true;
  for (const GoldenRow& row : kBaselineRows) {
    auto proto = protocols::make_protocol(row.protocol);
    obs::StatsObserver stats(topo.num_nodes(), config.num_packets);
    obs::TimeSeriesOptions series_options;
    series_options.window_slots = 64;
    series_options.energy = config.energy;
    obs::TimeSeriesObserver series(topo, series_options);
    obs::WatchdogConfig watchdog_config;
    watchdog_config.stall_slot_budget = 1u << 20;  // generous: never trips.
    obs::WatchdogObserver watchdog(watchdog_config);
    watchdog.set_cause_source(&series);
    sim::MultiObserver fan_out;
    fan_out.add(&stats);
    fan_out.add(&series);
    fan_out.add(&watchdog);
    EXPECT_FALSE(fan_out.wants_every_slot());  // compact time survives.
    const sim::SimResult res =
        sim::run_simulation(topo, config, *proto, &fan_out);
    expect_matches(row, res);
    // The observers watched the same run they did not perturb.
    EXPECT_EQ(stats.registry().counter("tx.attempts").value(), row.attempts);
    EXPECT_EQ(stats.registry().counter("slots.simulated").value(),
              row.end_slot);
    obs::SeriesWindow totals;
    for (const auto& w : series.series().windows) totals.add(w);
    EXPECT_EQ(totals.channel.attempts, row.attempts);
    EXPECT_EQ(totals.generated, config.num_packets);
    EXPECT_EQ(series.series().end_slot, row.end_slot);
    EXPECT_TRUE(res.profile.enabled);
    EXPECT_EQ(res.profile.slots + res.profile.slots_skipped, row.end_slot);
  }
}

// The determinism contract of the counter-based channel kernel refactor:
// explicit kSequential mode through the two-phase SoA kernel reproduces
// every pinned fingerprint bit-for-bit. kSlotKeyed is pinned elsewhere
// (test_channel_keyed.cpp).
TEST(GoldenMetrics, SequentialModeSurvivesTheKeyedKernelRefactor) {
  const topology::Topology topo = golden_topology();
  sim::SimConfig config = golden_config();
  config.channel_rng = sim::ChannelRngMode::kSequential;
  for (const GoldenRow& row : kBaselineRows) {
    auto proto = protocols::make_protocol(row.protocol);
    expect_matches(row, sim::run_simulation(topo, config, *proto));
  }
  sim::SimConfig perturbed = perturbed_config();
  perturbed.channel_rng = sim::ChannelRngMode::kSequential;
  for (const GoldenRow& row : kPerturbedRows) {
    auto proto = protocols::make_protocol(row.protocol);
    expect_matches(row, sim::run_simulation(topo, perturbed, *proto));
  }
}

TEST(GoldenMetrics, RowTableCoversEveryRegisteredProtocol) {
  std::vector<std::string> pinned;
  pinned.reserve(kBaselineRows.size());
  for (const GoldenRow& row : kBaselineRows) pinned.emplace_back(row.protocol);
  EXPECT_EQ(pinned, protocols::protocol_names())
      << "a new protocol needs a pinned golden row";
}

}  // namespace
