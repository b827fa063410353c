// TimeSeriesObserver unit tests: option validation, window bucketing, the
// closed-form idle-gap settlement (pinned against a brute-force per-slot
// account), auto-coarsening, order-independent merges, the anomaly rules,
// the netmap's deterministic top-K rankings, and the MultiObserver fan-out
// contract with a full observer stack (stats + timeseries + watchdog).
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/geometry.hpp"
#include "ldcf/topology/topology.hpp"

namespace {

using namespace ldcf;

/// A line of `n` nodes spaced 10 m apart: a non-degenerate bounding box so
/// the auto heat grid has more than one cell.
topology::Topology line_topology(std::size_t n) {
  std::vector<topology::Point2D> positions(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions[i].x = 10.0 * static_cast<double>(i);
  }
  return topology::Topology::from_links(std::move(positions), {});
}

sim::TxResult unicast(NodeId sender, NodeId receiver, sim::TxOutcome outcome,
                      bool duplicate = false) {
  sim::TxResult result;
  result.intent.sender = sender;
  result.intent.receiver = receiver;
  result.intent.packet = 0;
  result.outcome = outcome;
  result.duplicate = duplicate;
  return result;
}

TEST(TimeSeriesOptions, ValidateRejectsOutOfRangeKnobs) {
  obs::TimeSeriesOptions options;
  EXPECT_NO_THROW(obs::validate(options));  // defaults are legal.
  options.window_slots = 0;
  EXPECT_THROW(obs::validate(options), InvalidArgument);
  options = {};
  options.top_k = 0;
  EXPECT_THROW(obs::validate(options), InvalidArgument);
  options.top_k = 65537;
  EXPECT_THROW(obs::validate(options), InvalidArgument);
  options.top_k = 65536;
  EXPECT_NO_THROW(obs::validate(options));
}

TEST(TimeSeries, EventsLandInTheirWindows) {
  const topology::Topology topo = line_topology(4);
  obs::TimeSeriesOptions options;
  options.window_slots = 64;
  obs::TimeSeriesObserver observer(topo, options);

  observer.on_generate(0, 0);
  observer.on_generate(1, 63);   // still window 0.
  observer.on_generate(2, 64);   // window 1.
  observer.on_tx_result(unicast(0, 1, sim::TxOutcome::kDelivered), 10);
  observer.on_tx_result(unicast(1, 2, sim::TxOutcome::kCollision), 70);
  observer.on_tx_result(unicast(2, 3, sim::TxOutcome::kDelivered, true), 70);
  observer.on_delivery(1, 0, 0, false, 10);
  observer.on_overhear(3, 0, 0, true, 11);
  observer.on_overhear(3, 0, 0, false, 70);
  // covered_at is t + 1: slot-64 coverage belongs to window 1's last slot.
  observer.on_packet_covered(0, 65);
  observer.on_slot_listeners(5, 3);
  observer.on_slot_listeners(64, 2);

  const obs::TimeSeries& series = observer.series();
  ASSERT_EQ(series.windows.size(), 2u);
  const obs::SeriesWindow& w0 = series.windows[0];
  EXPECT_EQ(w0.generated, 2u);
  EXPECT_EQ(w0.channel.attempts, 1u);
  EXPECT_EQ(w0.channel.delivered, 1u);
  EXPECT_EQ(w0.channel.duplicates, 0u);
  EXPECT_EQ(w0.new_holders, 1u);
  EXPECT_EQ(w0.overhears, 1u);
  EXPECT_EQ(w0.channel.overhear_deliveries, 1u);
  EXPECT_EQ(w0.covered, 0u);
  EXPECT_EQ(w0.listen_slots, 3u);
  const obs::SeriesWindow& w1 = series.windows[1];
  EXPECT_EQ(w1.generated, 1u);
  EXPECT_EQ(w1.channel.attempts, 2u);
  EXPECT_EQ(w1.channel.delivered, 1u);
  EXPECT_EQ(w1.channel.duplicates, 1u);
  EXPECT_EQ(w1.channel.collisions, 1u);
  EXPECT_EQ(w1.covered, 1u);
  EXPECT_EQ(w1.overhears, 1u);
  EXPECT_EQ(w1.channel.overhear_deliveries, 0u);
  EXPECT_EQ(w1.listen_slots, 2u);
  EXPECT_EQ(series.end_slot, 71u);
}

// The tentpole invariant in miniature: settling a gap through on_idle_gap
// must equal executing every slot of it with on_slot_listeners, for any
// alignment of gap against window grid. Brute force on one observer, the
// closed form on the other, bit-equal windows required.
TEST(TimeSeries, IdleGapSettlementMatchesBruteForcePerSlotAccount) {
  const topology::Topology topo = line_topology(6);
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint32_t period = 2 + static_cast<std::uint32_t>(rng.below(9));
    std::vector<std::uint64_t> live(period);
    for (auto& l : live) l = rng.below(7);

    obs::TimeSeriesOptions options;
    options.window_slots = 1 + (rng.below(100));
    obs::TimeSeriesObserver compact(topo, options);
    obs::TimeSeriesObserver dense(topo, options);

    SlotIndex t = rng.below(50);
    for (int gap = 0; gap < 8; ++gap) {
      const SlotIndex from = t;
      const SlotIndex to = from + 1 + (rng.below(300));
      compact.on_idle_gap(from, to, live);
      for (SlotIndex s = from; s < to; ++s) {
        dense.on_slot_listeners(s, live[s % period]);
      }
      t = to + (rng.below(20));
    }

    const auto& cw = compact.series().windows;
    const auto& dw = dense.series().windows;
    ASSERT_EQ(cw.size(), dw.size()) << "trial " << trial;
    for (std::size_t i = 0; i < cw.size(); ++i) {
      EXPECT_EQ(cw[i].listen_slots, dw[i].listen_slots)
          << "trial " << trial << " window " << i;
    }
    EXPECT_EQ(compact.series().end_slot, dense.series().end_slot);
  }
}

TEST(TimeSeries, AutoCoarseningPreservesSumsAndCapsWindowCount) {
  const topology::Topology topo = line_topology(3);
  obs::TimeSeriesOptions options;
  options.window_slots = 1;
  obs::TimeSeriesObserver observer(topo, options);
  const obs::TimeSeries& series = observer.series();
  const SlotIndex cap = obs::kMaxWindows;

  // Exactly kMaxWindows one-slot windows fit without coarsening...
  for (SlotIndex t = 0; t < cap; ++t) observer.on_generate(0, t);
  EXPECT_EQ(series.window_slots, 1u);
  EXPECT_EQ(series.windows.size(), cap);
  // ...and the next slot doubles the width, pairwise-merging windows.
  observer.on_generate(0, cap);
  EXPECT_EQ(series.window_slots, 2u);
  EXPECT_EQ(series.windows.size(), cap / 2 + 1);
  EXPECT_EQ(series.windows[0].generated, 2u);  // slots 0 and 1.
  EXPECT_EQ(series.windows[cap / 2].generated, 1u);

  for (SlotIndex t = cap + 1; t < 4 * cap; ++t) observer.on_generate(0, t);
  EXPECT_EQ(series.windows.size(), cap);
  EXPECT_EQ(series.base_window_slots, 1u);
  EXPECT_EQ(series.window_slots, 4u);  // doubled twice past the cap.
  std::uint64_t total = 0;
  std::size_t uneven = 0;  // every window now spans 4 generating slots.
  for (const auto& w : series.windows) {
    total += w.generated;
    if (w.generated != 4) ++uneven;
  }
  EXPECT_EQ(total, 4 * cap);
  EXPECT_EQ(uneven, 0u);
}

TEST(TimeSeries, MergeIsOrderIndependentAndAlignsWidths) {
  obs::TimeSeries fine;
  fine.base_window_slots = fine.window_slots = 32;
  fine.trials = 1;
  fine.end_slot = 128;
  fine.windows.resize(4);
  for (std::size_t i = 0; i < 4; ++i) fine.windows[i].channel.attempts = i + 1;

  obs::TimeSeries coarse;
  coarse.base_window_slots = 32;
  coarse.window_slots = 64;  // base * 2: one auto-coarsen deep.
  coarse.trials = 2;
  coarse.end_slot = 192;
  coarse.windows.resize(3);
  for (std::size_t i = 0; i < 3; ++i) coarse.windows[i].channel.attempts = 100;

  obs::TimeSeries ab = fine;
  ab.merge(coarse);
  obs::TimeSeries ba = coarse;
  ba.merge(fine);

  ASSERT_EQ(ab.windows.size(), ba.windows.size());
  for (std::size_t i = 0; i < ab.windows.size(); ++i) {
    EXPECT_EQ(ab.windows[i].channel.attempts, ba.windows[i].channel.attempts);
  }
  EXPECT_EQ(ab.window_slots, 64u);
  EXPECT_EQ(ab.trials, 3u);
  EXPECT_EQ(ab.end_slot, 192u);
  // The fine side's windows pairwise-merged: (1+2), (3+4), then +100 each.
  EXPECT_EQ(ab.windows[0].channel.attempts, 103u);
  EXPECT_EQ(ab.windows[1].channel.attempts, 107u);
  EXPECT_EQ(ab.windows[2].channel.attempts, 100u);

  obs::TimeSeries alien;
  alien.base_window_slots = alien.window_slots = 48;
  alien.trials = 1;
  alien.windows.resize(1);
  EXPECT_THROW(ab.merge(alien), InvalidArgument);

  obs::TimeSeries empty;
  obs::TimeSeries into_empty;
  into_empty.merge(fine);  // empty absorbs the other side verbatim.
  EXPECT_EQ(into_empty.windows.size(), 4u);
  ab.merge(empty);  // merging an empty series is a no-op.
  EXPECT_EQ(ab.trials, 3u);
}

TEST(TimeSeries, CoverageStallRuleFindsMaximalStreaks) {
  obs::TimeSeries series;
  series.base_window_slots = series.window_slots = 100;
  series.trials = 1;
  static_assert(obs::kStallWindows == 8);
  series.windows.resize(12);
  series.windows[0].generated = 5;
  series.windows[0].new_holders = 3;
  // Windows 1..8: in flight, zero progress — an 8-window stall.
  series.windows[9].covered = 1;
  series.windows[9].new_holders = 2;

  // No window has attempts, so the spike rule stays out of the way.
  const auto found = obs::evaluate_anomalies(series, nullptr);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "coverage_stall");
  EXPECT_EQ(found[0].start_slot, 100u);  // window 1.
  EXPECT_EQ(found[0].value, 8.0);
  EXPECT_EQ(found[0].baseline, 8.0);

  // Progress in window 8 cuts the streak to 7 windows: too short.
  series.windows[8].new_holders = 1;
  EXPECT_TRUE(obs::evaluate_anomalies(series, nullptr).empty());

  // A trailing stall (no progress window after it) must still flush.
  obs::TimeSeries trailing;
  trailing.base_window_slots = trailing.window_slots = 100;
  trailing.trials = 1;
  trailing.windows.resize(10);
  trailing.windows[0].generated = 1;
  const auto tail = obs::evaluate_anomalies(trailing, nullptr);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].value, 9.0);  // windows 1..9.
}

TEST(TimeSeries, CollisionSpikeRuleComparesAgainstTrailingBaseline) {
  obs::TimeSeries series;
  series.base_window_slots = series.window_slots = 100;
  series.trials = 1;
  series.windows.resize(6);
  for (std::size_t i = 0; i < 5; ++i) {
    series.windows[i].channel.attempts = 100;
    series.windows[i].channel.collisions = 5;  // 5% baseline.
  }
  series.windows[5].channel.attempts = 100;
  series.windows[5].channel.collisions = 40;  // 40% > 4 x 5%.

  // Nothing is generated, so the stall rule stays out of the way.
  const auto found = obs::evaluate_anomalies(series, nullptr);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "collision_spike");
  EXPECT_EQ(found[0].start_slot, 500u);
  EXPECT_DOUBLE_EQ(found[0].value, 0.40);
  EXPECT_DOUBLE_EQ(found[0].baseline, 0.05);

  // Collision-free baseline: the absolute 0.5 fallback applies.
  obs::TimeSeries quiet = series;
  for (std::size_t i = 0; i < 5; ++i) quiet.windows[i].channel.collisions = 0;
  quiet.windows[5].channel.collisions = 49;
  EXPECT_TRUE(obs::evaluate_anomalies(quiet, nullptr).empty());
  quiet.windows[5].channel.collisions = 50;
  EXPECT_EQ(obs::evaluate_anomalies(quiet, nullptr).size(), 1u);

  // Below kSpikeMinAttempts (64) the rule stays silent.
  series.windows[5].channel.attempts = 63;
  EXPECT_TRUE(obs::evaluate_anomalies(series, nullptr).empty());
  series.windows[5].channel.attempts = 64;
  EXPECT_EQ(obs::evaluate_anomalies(series, nullptr).size(), 1u);
}

TEST(TimeSeries, EnergyOutlierRuleNeedsEnoughNodesAndSpread) {
  obs::TimeSeries series;
  series.trials = 1;
  series.base_window_slots = series.window_slots = 100;
  obs::NetMap map;
  map.trials = 1;
  // One hot node among 16: its z-score is sqrt(15) ~ 3.9 > 3 sigma.
  map.nodes.resize(16);
  for (std::size_t n = 0; n < 15; ++n) map.nodes[n].energy = 100.0;
  map.nodes[15].energy = 5000.0;

  const auto found = obs::evaluate_anomalies(series, &map);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].rule, "energy_outlier");
  EXPECT_DOUBLE_EQ(found[0].value, 5000.0);
  EXPECT_NE(found[0].message.find("node 15"), std::string::npos);
  EXPECT_NE(found[0].message.find("at 3 sigma"), std::string::npos);

  // Among 9 nodes the same spread is only sqrt(8) ~ 2.8 sigma.
  map.nodes.resize(9);
  map.nodes[8].energy = 5000.0;
  EXPECT_TRUE(obs::evaluate_anomalies(series, &map).empty());

  map.nodes.resize(7);  // below the 8-node floor.
  map.nodes[6].energy = 1e9;
  EXPECT_TRUE(obs::evaluate_anomalies(series, &map).empty());
  EXPECT_TRUE(obs::evaluate_anomalies(series, nullptr).empty());
}

TEST(NetMap, TopLinksRankByContentionWithDeterministicTies) {
  obs::NetMap map;
  map.trials = 1;
  map.top_k = 2;
  const auto key = [](NodeId s, NodeId r) {
    return (static_cast<std::uint64_t>(s) << 32) | r;
  };
  map.links[key(1, 2)] = {10, 8, 2, 0, 0, 0};   // contention 2.
  map.links[key(3, 4)] = {20, 10, 5, 3, 2, 0};  // contention 10.
  map.links[key(0, 1)] = {30, 20, 5, 3, 2, 0};  // contention 10, more attempts.
  const auto top = map.top_links();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, key(0, 1));  // ties break on attempts desc.
  EXPECT_EQ(top[1].first, key(3, 4));

  obs::NetMap other = map;
  map.merge(other);
  EXPECT_EQ(map.trials, 2u);
  EXPECT_EQ(map.links.at(key(1, 2)).attempts, 20u);
  EXPECT_EQ(map.links.at(key(1, 2)).collisions, 4u);

  obs::NetMap misfit;
  misfit.trials = 1;
  misfit.nodes.resize(3);
  EXPECT_THROW(map.merge(misfit), InvalidArgument);
}

TEST(NetMap, ObserverBinsNodesOntoTheHeatGrid) {
  const topology::Topology topo = line_topology(8);
  obs::TimeSeriesObserver observer(topo);
  observer.on_tx_result(unicast(0, 1, sim::TxOutcome::kDelivered), 0);
  observer.on_tx_result(unicast(7, 6, sim::TxOutcome::kLostChannel, false), 0);

  const obs::NetMap& map = observer.netmap();
  EXPECT_EQ(map.nodes.size(), 8u);
  EXPECT_DOUBLE_EQ(map.cell_size, 70.0 / 24.0);  // long side / 24.
  std::uint64_t binned = 0;
  for (const auto& cell : map.cells) binned += cell.nodes;
  EXPECT_EQ(binned, 8u);  // every node lands in exactly one cell.
}

// Satellite: the MultiObserver contract with a realistic full stack. Three
// observers (stats + timeseries + watchdog) fan out in registration order,
// none of them forces the dense path, and the run's results are identical
// to an unobserved run.
TEST(MultiObserverStack, ThreeObserverFanOutMatchesBareRun) {
  topology::ClusterConfig gen;
  gen.base.num_sensors = 40;
  gen.base.area_side_m = 200.0;
  gen.base.seed = 5;
  gen.num_clusters = 3;
  gen.cluster_sigma_m = 30.0;
  const topology::Topology topo = topology::make_clustered(gen);
  sim::SimConfig config;
  config.num_packets = 8;
  config.seed = 3;

  auto bare_proto = protocols::make_protocol("dbao");
  const sim::SimResult bare = sim::run_simulation(topo, config, *bare_proto);

  obs::StatsObserver stats(topo.num_nodes(), config.num_packets);
  obs::TimeSeriesOptions series_options;
  series_options.window_slots = 32;
  obs::TimeSeriesObserver series(topo, series_options);
  obs::WatchdogConfig watchdog_config;
  watchdog_config.stall_slot_budget = 1u << 20;
  obs::WatchdogObserver watchdog(watchdog_config);
  watchdog.set_cause_source(&series);
  sim::MultiObserver fan_out;
  fan_out.add(&stats);
  fan_out.add(&series);
  fan_out.add(&watchdog);
  ASSERT_EQ(fan_out.size(), 3u);
  // None of the stack demands dense execution: compact time survives.
  EXPECT_FALSE(fan_out.wants_every_slot());

  auto proto = protocols::make_protocol("dbao");
  const sim::SimResult observed =
      sim::run_simulation(topo, config, *proto, &fan_out);

  EXPECT_EQ(bare.metrics.end_slot, observed.metrics.end_slot);
  EXPECT_EQ(bare.metrics.channel.attempts, observed.metrics.channel.attempts);
  EXPECT_EQ(bare.energy.per_node, observed.energy.per_node);

  // The series observer watched the same run: its totals equal the run's.
  obs::SeriesWindow totals;
  for (const auto& w : series.series().windows) totals.add(w);
  EXPECT_EQ(totals.channel.attempts, observed.metrics.channel.attempts);
  EXPECT_EQ(totals.channel.delivered, observed.metrics.channel.delivered);
  EXPECT_EQ(totals.channel.duplicates, observed.metrics.channel.duplicates);
  EXPECT_EQ(totals.channel.collisions, observed.metrics.channel.collisions);
  EXPECT_EQ(totals.channel.sync_misses, observed.metrics.channel.sync_misses);
  EXPECT_EQ(series.series().end_slot, observed.metrics.end_slot);
  // Windowed listen slots sum to the tally's total listening account.
  std::uint64_t tally_listens = 0;
  for (const auto slots : observed.tally.active_slots) tally_listens += slots;
  EXPECT_EQ(totals.listen_slots, tally_listens);
  // Window count covers the run exactly (the CI smoke invariant).
  const auto& ts = series.series();
  EXPECT_EQ(ts.windows.size(),
            (ts.end_slot + ts.window_slots - 1) / ts.window_slots);

  // Adding a dense-demanding observer flips the veto for the whole stack.
  std::ostringstream sink;
  sim::TraceObserver dense_trace(sink, /*include_idle_slots=*/true);
  fan_out.add(&dense_trace);
  EXPECT_TRUE(fan_out.wants_every_slot());
}

// A tripped watchdog carries the series observer's anomalies as causes.
TEST(MultiObserverStack, WatchdogDiagnosticCarriesSeriesCauses) {
  const topology::Topology topo = line_topology(4);
  obs::TimeSeriesOptions options;
  options.window_slots = 10;
  obs::TimeSeriesObserver series(topo, options);
  obs::WatchdogConfig config;
  config.stall_slot_budget = 120;  // trips with windows 1..12 stalled.
  obs::WatchdogObserver watchdog(config);
  watchdog.set_cause_source(&series);

  // One generation, then silence: the series accumulates a coverage stall
  // while the watchdog's slot budget drains.
  series.on_generate(0, 0);
  watchdog.on_generate(0, 0);
  try {
    for (SlotIndex t = 0; t < 200; ++t) {
      series.on_slot_listeners(t, 2);
      watchdog.on_slot_begin(t, {});
    }
    FAIL() << "expected WatchdogError";
  } catch (const obs::WatchdogError& error) {
    ASSERT_FALSE(error.diagnostic().causes.empty());
    EXPECT_NE(error.diagnostic().causes.front().find("coverage_stall"),
              std::string::npos);
  }
}

TEST(TimeSeries, SerializationEmitsSchemaInvariants) {
  const topology::Topology topo = line_topology(4);
  obs::TimeSeriesOptions options;
  options.window_slots = 16;
  obs::TimeSeriesObserver observer(topo, options);
  observer.on_generate(0, 0);
  observer.on_tx_result(unicast(0, 1, sim::TxOutcome::kDelivered), 3);
  observer.on_slot_listeners(40, 2);

  std::ostringstream out;
  obs::JsonWriter json(out);
  obs::write_timeseries(json, observer.series());
  const std::string text = out.str();
  EXPECT_NE(text.find("\"num_windows\":3"), std::string::npos);
  EXPECT_NE(text.find("\"end_slot\":41"), std::string::npos);
  EXPECT_NE(text.find("\"windows\":["), std::string::npos);
  EXPECT_NE(text.find("\"anomalies\":["), std::string::npos);
  EXPECT_NE(text.find("\"in_flight\":1"), std::string::npos);

  std::ostringstream map_out;
  obs::JsonWriter map_json(map_out);
  obs::write_netmap(map_json, observer.netmap());
  const std::string map_text = map_out.str();
  EXPECT_NE(map_text.find("\"grid\":{"), std::string::npos);
  EXPECT_NE(map_text.find("\"top_links\":["), std::string::npos);
  EXPECT_NE(map_text.find("\"top_nodes\":["), std::string::npos);
}

}  // namespace
