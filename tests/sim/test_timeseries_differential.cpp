// Differential proof for the windowed telemetry observer: the series and
// hot-spot maps TimeSeriesObserver accumulates must be bit-identical between
// dense and compact-time execution (the observer never forces the dense
// path, so its closed-form idle-gap settlement has to reproduce the per-slot
// account exactly), across every registered protocol, with perturbations
// (node kills change the gap's per-phase live counts mid-run), and across
// thread counts in the experiment layer's per-trial merge.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
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

void expect_same_window(const obs::SeriesWindow& a, const obs::SeriesWindow& b,
                        const std::string& label, std::size_t index) {
  EXPECT_EQ(a.generated, b.generated) << label << " window " << index;
  EXPECT_EQ(a.covered, b.covered) << label << " window " << index;
  EXPECT_EQ(a.new_holders, b.new_holders) << label << " window " << index;
  EXPECT_EQ(a.channel.attempts, b.channel.attempts)
      << label << " window " << index;
  EXPECT_EQ(a.channel.delivered, b.channel.delivered)
      << label << " window " << index;
  EXPECT_EQ(a.channel.duplicates, b.channel.duplicates)
      << label << " window " << index;
  EXPECT_EQ(a.channel.losses, b.channel.losses)
      << label << " window " << index;
  EXPECT_EQ(a.channel.collisions, b.channel.collisions)
      << label << " window " << index;
  EXPECT_EQ(a.channel.receiver_busy, b.channel.receiver_busy)
      << label << " window " << index;
  EXPECT_EQ(a.channel.sync_misses, b.channel.sync_misses)
      << label << " window " << index;
  EXPECT_EQ(a.channel.broadcasts, b.channel.broadcasts)
      << label << " window " << index;
  EXPECT_EQ(a.overhears, b.overhears) << label << " window " << index;
  EXPECT_EQ(a.channel.overhear_deliveries, b.channel.overhear_deliveries)
      << label << " window " << index;
  EXPECT_EQ(a.listen_slots, b.listen_slots) << label << " window " << index;
}

void expect_same_series(const obs::TimeSeries& a, const obs::TimeSeries& b,
                        const std::string& label) {
  EXPECT_EQ(a.base_window_slots, b.base_window_slots) << label;
  EXPECT_EQ(a.window_slots, b.window_slots) << label;
  EXPECT_EQ(a.end_slot, b.end_slot) << label;
  EXPECT_EQ(a.trials, b.trials) << label;
  ASSERT_EQ(a.windows.size(), b.windows.size()) << label;
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    expect_same_window(a.windows[i], b.windows[i], label, i);
  }
  ASSERT_EQ(a.anomalies.size(), b.anomalies.size()) << label;
  for (std::size_t i = 0; i < a.anomalies.size(); ++i) {
    EXPECT_EQ(a.anomalies[i].rule, b.anomalies[i].rule) << label;
    EXPECT_EQ(a.anomalies[i].start_slot, b.anomalies[i].start_slot) << label;
    EXPECT_EQ(a.anomalies[i].value, b.anomalies[i].value) << label;
    EXPECT_EQ(a.anomalies[i].baseline, b.anomalies[i].baseline) << label;
  }
}

void expect_same_netmap(const obs::NetMap& a, const obs::NetMap& b,
                        const std::string& label) {
  EXPECT_EQ(a.trials, b.trials) << label;
  EXPECT_EQ(a.grid_cols, b.grid_cols) << label;
  EXPECT_EQ(a.grid_rows, b.grid_rows) << label;
  EXPECT_EQ(a.cell_size, b.cell_size) << label;
  ASSERT_EQ(a.nodes.size(), b.nodes.size()) << label;
  for (std::size_t n = 0; n < a.nodes.size(); ++n) {
    EXPECT_EQ(a.nodes[n].tx_attempts, b.nodes[n].tx_attempts)
        << label << " node " << n;
    EXPECT_EQ(a.nodes[n].collisions_rx, b.nodes[n].collisions_rx)
        << label << " node " << n;
    EXPECT_EQ(a.nodes[n].receptions, b.nodes[n].receptions)
        << label << " node " << n;
    EXPECT_EQ(a.nodes[n].energy, b.nodes[n].energy) << label << " node " << n;
  }
  ASSERT_EQ(a.cells.size(), b.cells.size()) << label;
  for (std::size_t c = 0; c < a.cells.size(); ++c) {
    EXPECT_EQ(a.cells[c].tx_attempts, b.cells[c].tx_attempts)
        << label << " cell " << c;
    EXPECT_EQ(a.cells[c].collisions, b.cells[c].collisions)
        << label << " cell " << c;
    EXPECT_EQ(a.cells[c].deliveries, b.cells[c].deliveries)
        << label << " cell " << c;
    EXPECT_EQ(a.cells[c].energy, b.cells[c].energy) << label << " cell " << c;
    EXPECT_EQ(a.cells[c].nodes, b.cells[c].nodes) << label << " cell " << c;
  }
  ASSERT_EQ(a.links.size(), b.links.size()) << label;
  for (const auto& [key, link] : a.links) {
    const auto it = b.links.find(key);
    ASSERT_NE(it, b.links.end()) << label << " link " << key;
    EXPECT_EQ(link.attempts, it->second.attempts) << label << " link " << key;
    EXPECT_EQ(link.delivered, it->second.delivered) << label;
    EXPECT_EQ(link.collisions, it->second.collisions) << label;
    EXPECT_EQ(link.receiver_busy, it->second.receiver_busy) << label;
    EXPECT_EQ(link.losses, it->second.losses) << label;
    EXPECT_EQ(link.sync_misses, it->second.sync_misses) << label;
  }
}

/// Run `protocol` under `config` twice — dense and compact — each with a
/// fresh TimeSeriesObserver, and require identical telemetry. A non-null
/// `dense_series` receives the dense run's series.
void run_differential(const topology::Topology& topo, sim::SimConfig config,
                      const std::string& protocol,
                      const obs::TimeSeriesOptions& options,
                      obs::TimeSeries* dense_series = nullptr) {
  obs::TimeSeriesOptions series_options = options;
  series_options.energy = config.energy;

  config.compact_time = false;
  obs::TimeSeriesObserver dense(topo, series_options);
  auto dense_proto = protocols::make_protocol(protocol);
  const sim::SimResult dense_result =
      sim::run_simulation(topo, config, *dense_proto, &dense);

  config.compact_time = true;
  obs::TimeSeriesObserver compact(topo, series_options);
  auto compact_proto = protocols::make_protocol(protocol);
  const sim::SimResult compact_result =
      sim::run_simulation(topo, config, *compact_proto, &compact);

  // Guard: the underlying runs themselves agreed (so a series mismatch
  // below would be the observer's fault, not the engine's).
  ASSERT_EQ(dense_result.metrics.end_slot, compact_result.metrics.end_slot)
      << protocol;
  ASSERT_EQ(dense_result.energy.per_node, compact_result.energy.per_node)
      << protocol;

  expect_same_series(dense.series(), compact.series(), protocol);
  expect_same_netmap(dense.netmap(), compact.netmap(), protocol);
  if (dense_series != nullptr) *dense_series = dense.take_series();
}

TEST(TimeSeriesDifferential, AllProtocolsDenseVsCompact) {
  const topology::Topology topo = small_topology(7, 48);
  sim::SimConfig config;
  config.num_packets = 10;
  config.seed = 11;
  obs::TimeSeriesOptions options;
  options.window_slots = 37;  // deliberately misaligned with periods.
  for (const std::string& protocol : protocols::protocol_names()) {
    SCOPED_TRACE(protocol);
    run_differential(topo, config, protocol, options);
  }
}

TEST(TimeSeriesDifferential, PerturbedConfigsWithNodeKills) {
  // Node failures decrement the gap settlement's per-phase live counts
  // mid-run — the hardest case for the closed-form listen account.
  const topology::Topology topo = small_topology(13, 56);
  sim::SimConfig config;
  config.num_packets = 12;
  config.seed = 29;
  config.duty = DutyCycle{25};
  config.sync_miss_prob = 0.02;
  config.perturbations.node_failures = {{5, 40}, {11, 200}, {17, 900}};
  config.perturbations.burst = sim::LinkBurst{0.4, 150, 120};
  obs::TimeSeriesOptions options;
  options.window_slots = 64;
  for (const std::string& protocol : {std::string("dbao"), std::string("of"),
                                      std::string("flash")}) {
    SCOPED_TRACE(protocol);
    run_differential(topo, config, protocol, options);
  }
}

TEST(TimeSeriesDifferential, TinyWindowsForceCoarsening) {
  // window_slots=1 over a run of more than 2 x kMaxWindows slots: the
  // observer coarsens twice mid-run on both paths (inside idle gaps on the
  // compact one) and must still agree bit-for-bit.
  const topology::Topology topo = small_topology(3, 40);
  sim::SimConfig config;
  config.num_packets = 6;
  config.packet_spacing = 30'000;  // the last packet enters at slot 150k.
  config.seed = 17;
  obs::TimeSeriesOptions options;
  options.window_slots = 1;
  obs::TimeSeries series;
  run_differential(topo, config, "opt", options, &series);
  EXPECT_GT(series.end_slot, 2 * obs::kMaxWindows);
  EXPECT_EQ(series.window_slots, 4u);
  EXPECT_LE(series.windows.size(), obs::kMaxWindows);
}

TEST(TimeSeriesDifferential, ExperimentMergeIsThreadCountInvariant) {
  const topology::Topology topo = small_topology(21, 44);
  analysis::ExperimentConfig config;
  config.base.num_packets = 8;
  config.base.seed = 5;
  config.repetitions = 6;
  config.trial.collect_series = true;
  config.trial.series.window_slots = 128;

  config.threads = 1;
  const analysis::ProtocolPoint serial =
      analysis::run_point(topo, "dbao", DutyCycle{20}, config);
  config.threads = 4;
  const analysis::ProtocolPoint threaded =
      analysis::run_point(topo, "dbao", DutyCycle{20}, config);

  EXPECT_EQ(serial.timeseries.trials, 6u);
  expect_same_series(serial.timeseries, threaded.timeseries, "run_point");
  expect_same_netmap(serial.netmap, threaded.netmap, "run_point");
}

}  // namespace
