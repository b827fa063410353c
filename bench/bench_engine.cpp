// Engine throughput microbenchmark: slots simulated per second on a
// 256-node clustered topology, per protocol, plus a saturated
// channel-kernel segment (Bernoulli draws per second: the sequential stream
// against the counter-based keyed kernel). These
// are the baseline hot-path numbers future engine PRs are measured against —
// the trace-driven figure benches vary protocol behaviour, this one pins
// raw slot-loop and draw-kernel cost.
//
// Env knobs: LDCF_BENCH_PACKETS (default 60), LDCF_BENCH_REPS (default 3:
// protocol rows report the median and quartiles over the repetitions,
// channel rows the best), LDCF_ENGINE_DUTY_PCT (default 5),
// LDCF_BENCH_REPORT (JSON output path, default BENCH_engine.json; empty
// disables it).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/channel.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

struct BenchRow {
  std::string protocol;
  std::uint64_t slots = 0;
  std::uint64_t attempts = 0;
  /// Wall time of one run over the repetitions: median and quartiles.
  double median_seconds = 0.0;
  double q1_seconds = 0.0;
  double q3_seconds = 0.0;
  double slots_per_sec = 0.0;  ///< at the median.
  /// Only on the series_overhead row: observed/bare slot throughput with
  /// the windowed telemetry observer attached (1.0 = free, floor in CI).
  double series_speed_ratio = 0.0;
};

// One channel-kernel measurement: `draws` realized Bernoulli draws across
// the segment's slots (deterministic — draw *counts* do not depend on
// outcomes), timed as draws/second. The label doubles as the report row key.
struct ChannelRow {
  std::string label;
  std::uint64_t draws = 0;
  double best_seconds = 0.0;
  double mdraws_per_sec = 0.0;
};

// Saturated channel workload: kChannelHubs broadcasting hubs, each with
// kChannelLeaves private listeners, so every slot realizes exactly
// hubs * leaves overhear draws with no collision noise.
constexpr std::uint32_t kChannelHubs = 32;
constexpr std::uint32_t kChannelLeaves = 511;
constexpr std::uint32_t kChannelSlots = 200;

/// The q-quantile of a non-empty sample set, interpolating linearly between
/// order statistics (copies, then sorts).
double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

ldcf::topology::Topology make_star_forest() {
  using namespace ldcf;
  const std::uint32_t nodes = kChannelHubs * (kChannelLeaves + 1);
  std::vector<topology::LinkRecord> links;
  for (std::uint32_t s = 0; s < kChannelHubs; ++s) {
    const NodeId hub = s * (kChannelLeaves + 1);
    for (std::uint32_t l = 1; l <= kChannelLeaves; ++l) {
      links.push_back({hub, hub + l, 0.5});
      links.push_back({hub + l, hub, 0.5});
    }
  }
  return topology::Topology::from_links(
      std::vector<topology::Point2D>(nodes), std::move(links));
}

ChannelRow run_channel_bench(const std::string& label,
                             const ldcf::topology::Topology& topo,
                             const ldcf::sim::ChannelConfig& config,
                             std::uint32_t reps) {
  using namespace ldcf;
  using Clock = std::chrono::steady_clock;
  std::vector<sim::TxIntent> intents;
  intents.reserve(kChannelHubs);
  for (std::uint32_t s = 0; s < kChannelHubs; ++s) {
    intents.push_back(sim::TxIntent{s * (kChannelLeaves + 1), kNoNode, s % 4});
  }
  std::vector<NodeId> active;
  active.reserve(topo.num_nodes());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) active.push_back(n);

  sim::Channel channel(topo);
  ChannelRow row;
  row.label = label;
  for (std::uint32_t rep = 0; rep < reps; ++rep) {
    Rng rng(7);  // fresh per rep so the sequential stream repeats exactly.
    std::uint64_t draws = 0;
    sim::SlotResolution out;
    const auto start = Clock::now();
    for (SlotIndex slot = 0; slot < kChannelSlots; ++slot) {
      channel.resolve(intents, active, slot, config, rng, out);
      draws += channel.last_draw_count();
    }
    const std::chrono::duration<double> elapsed = Clock::now() - start;
    row.draws = draws;
    if (rep == 0 || elapsed.count() < row.best_seconds) {
      row.best_seconds = elapsed.count();
    }
  }
  row.mdraws_per_sec =
      static_cast<double>(row.draws) / row.best_seconds / 1e6;
  return row;
}

/// Machine-readable twin of the printed table, via the obs report writer:
/// provenance plus one result object per protocol, so perf trajectories
/// can be diffed across commits without parsing the human table.
void write_bench_report(const std::string& path,
                        const ldcf::topology::Topology& topo,
                        const ldcf::sim::SimConfig& config, double duty_pct,
                        std::uint32_t reps,
                        const std::vector<BenchRow>& rows,
                        const std::vector<ChannelRow>& channel_rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "bench_engine: cannot open report file " << path << "\n";
    return;
  }
  ldcf::obs::JsonWriter json(out);
  json.begin_object()
      .field("schema", "ldcf.bench_report.v1")
      .field("bench", "engine");
  json.key("provenance");
  ldcf::obs::write_provenance(json, ldcf::obs::Provenance::current());
  json.key("config")
      .begin_object()
      .field("num_nodes", std::uint64_t{topo.num_nodes()})
      .field("num_packets", config.num_packets)
      .field("duty_percent", duty_pct)
      .field("seed", config.seed)
      .field("reps", reps)
      .field("channel_hubs", kChannelHubs)
      .field("channel_leaves", kChannelLeaves)
      .field("channel_slots", kChannelSlots)
      .end_object();
  json.key("topology");
  ldcf::obs::write_topology_summary(json, topo);
  json.key("results").begin_array();
  for (const BenchRow& row : rows) {
    json.begin_object()
        .field("protocol", row.protocol)
        .field("slots", row.slots)
        .field("attempts", row.attempts)
        .field("median_seconds", row.median_seconds)
        .field("q1_seconds", row.q1_seconds)
        .field("q3_seconds", row.q3_seconds)
        .field("slots_per_sec", row.slots_per_sec);
    if (row.series_speed_ratio > 0.0) {
      json.field("series_speed_ratio", row.series_speed_ratio);
    }
    json.end_object();
  }
  for (const ChannelRow& row : channel_rows) {
    json.begin_object()
        .field("protocol", row.label)
        .field("draws", row.draws)
        .field("best_seconds", row.best_seconds)
        .field("channel_mdraws_per_sec", row.mdraws_per_sec)
        .end_object();
  }
  json.end_array().end_object();
  out << '\n';
  std::cout << "Report written to " << path << "\n";
}

}  // namespace

int main() {
  using namespace ldcf;
  using analysis::Table;
  using Clock = std::chrono::steady_clock;

  topology::ClusterConfig gen;
  gen.base.num_sensors = 255;  // 256 nodes including the source.
  gen.base.area_side_m = 520.0;
  gen.base.radio.path_loss_exponent = 3.3;
  gen.base.seed = 1;
  gen.num_clusters = 15;
  gen.cluster_sigma_m = 34.0;
  const topology::Topology topo = topology::make_clustered(gen);

  double duty_pct = 5.0;
  if (const char* env = std::getenv("LDCF_ENGINE_DUTY_PCT")) {
    const double value = std::strtod(env, nullptr);
    if (value > 0.0) duty_pct = value;
  }

  sim::SimConfig config;
  config.duty = DutyCycle::from_ratio(duty_pct / 100.0);
  config.num_packets = bench::packet_count() < 100 ? bench::packet_count() : 60;
  config.seed = 7;
  config.max_slots = 50'000'000;
  const std::uint32_t reps = bench::repetitions();

  std::cout << "=== Engine throughput (N = " << topo.num_nodes()
            << " nodes, M = " << config.num_packets << ", duty " << duty_pct
            << "%, median of " << reps << ") ===\n";

  Table table({"protocol", "slots", "attempts", "ms (q1-q3)", "slots/sec"});
  std::vector<BenchRow> rows;
  for (const char* name : {"opt", "dbao", "of", "naive"}) {
    std::vector<double> seconds;
    sim::SimResult result;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const auto proto = protocols::make_protocol(name);
      const auto start = Clock::now();
      result = sim::run_simulation(topo, config, *proto);
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      seconds.push_back(elapsed.count());
    }
    BenchRow row{name, result.metrics.end_slot,
                 result.metrics.channel.attempts};
    row.median_seconds = quantile(seconds, 0.5);
    row.q1_seconds = quantile(seconds, 0.25);
    row.q3_seconds = quantile(seconds, 0.75);
    row.slots_per_sec =
        static_cast<double>(result.metrics.end_slot) / row.median_seconds;
    table.add_row({name, Table::num(row.slots),
                   Table::num(row.attempts),
                   Table::num(1e3 * row.median_seconds, 1) + " (" +
                       Table::num(1e3 * row.q1_seconds, 1) + "-" +
                       Table::num(1e3 * row.q3_seconds, 1) + ")",
                   Table::num(row.slots_per_sec, 0)});
    rows.push_back(row);
    if (result.metrics.truncated) {
      std::cout << "warning: " << name << " truncated at max_slots\n";
    }
  }
  table.print(std::cout);

  // Series-observer overhead segment: the slot-loop-heavy "of" workload
  // with and without the windowed telemetry observer, interleaved best-of
  // pairs so machine noise hits both sides alike. The observer is counter
  // increments on an already-fired event stream plus closed-form gap
  // settlement, so the loop must stay within a few percent of the bare
  // run — series_speed_ratio (observed/bare slots per second, best-of) is
  // the number the CI floor holds.
  {
    const std::uint32_t overhead_reps = reps < 5 ? 5 : reps;
    std::vector<double> bare_times;
    std::vector<double> observed_times;
    sim::SimResult result;
    for (std::uint32_t rep = 0; rep < overhead_reps; ++rep) {
      {
        const auto proto = protocols::make_protocol("of");
        const auto start = Clock::now();
        result = sim::run_simulation(topo, config, *proto);
        const std::chrono::duration<double> elapsed = Clock::now() - start;
        bare_times.push_back(elapsed.count());
      }
      {
        const auto proto = protocols::make_protocol("of");
        obs::TimeSeriesOptions series_options;
        series_options.energy = config.energy;
        obs::TimeSeriesObserver series(topo, series_options);
        const auto start = Clock::now();
        result = sim::run_simulation(topo, config, *proto, &series);
        const std::chrono::duration<double> elapsed = Clock::now() - start;
        observed_times.push_back(elapsed.count());
      }
    }
    // Machine noise (scheduler preemption, thermal drift) swamps a
    // single-digit-percent delta on absolute times. Each interleaved pair
    // is measured back to back, so its bare/observed ratio cancels drift;
    // the median over pairs then discards spike-contaminated pairs.
    std::vector<double> pair_ratios(overhead_reps);
    for (std::uint32_t rep = 0; rep < overhead_reps; ++rep) {
      pair_ratios[rep] = bare_times[rep] / observed_times[rep];
    }
    std::sort(pair_ratios.begin(), pair_ratios.end());
    const double median_ratio = pair_ratios[overhead_reps / 2];
    const double observed_median =
        quantile(observed_times, 0.5);  // sorts its copy.
    BenchRow row;
    row.protocol = "series_overhead";
    row.slots = result.metrics.end_slot;
    row.attempts = result.metrics.channel.attempts;
    row.median_seconds = observed_median;
    row.slots_per_sec =
        static_cast<double>(result.metrics.end_slot) / observed_median;
    row.series_speed_ratio = median_ratio;
    std::cout << "\n=== Series-observer overhead (of + TimeSeriesObserver, "
              << overhead_reps << " interleaved pairs, median ratio) ===\n"
              << "observed " << static_cast<std::uint64_t>(row.slots_per_sec)
              << " slots/sec vs bare "
              << static_cast<std::uint64_t>(
                     static_cast<double>(result.metrics.end_slot) /
                     quantile(bare_times, 0.5))
              << " -> ratio " << row.series_speed_ratio << "\n";
    rows.push_back(row);
  }

  // Channel-kernel segment: the same saturated star-forest slot resolved
  // under each draw realization. Draw counts are identical by construction
  // (counts never depend on outcomes); only the realization differs.
  const topology::Topology star = make_star_forest();
  sim::ChannelConfig channel_config;
  channel_config.collisions = true;
  channel_config.overhearing = true;
  channel_config.keyed_seed = 0xb5eedULL;
  std::vector<ChannelRow> channel_rows;
  channel_config.rng_mode = sim::ChannelRngMode::kSequential;
  channel_rows.push_back(
      run_channel_bench("channel_seq", star, channel_config, reps));
  channel_config.rng_mode = sim::ChannelRngMode::kSlotKeyed;
  channel_rows.push_back(
      run_channel_bench("channel_keyed_t1", star, channel_config, reps));

  std::cout << "\n=== Channel kernel (" << kChannelHubs << " hubs x "
            << kChannelLeaves << " listeners, " << kChannelSlots
            << " slots, best of " << reps << ") ===\n";
  Table channel_table({"mode", "draws", "ms", "Mdraws/sec"});
  for (const ChannelRow& row : channel_rows) {
    channel_table.add_row({row.label, Table::num(row.draws),
                           Table::num(1e3 * row.best_seconds, 1),
                           Table::num(row.mdraws_per_sec, 1)});
  }
  channel_table.print(std::cout);

  std::cout << "\nShape check: slots/sec is the hot-path budget; compare "
               "against EXPERIMENTS.md \"Engine throughput\" before/after "
               "touching sim/.\n";
  const std::string report = bench::report_path("engine");
  if (!report.empty()) {
    write_bench_report(report, topo, config, duty_pct, reps, rows,
                       channel_rows);
  }
  return 0;
}
