// Large-N scaling benchmark: topology construction throughput and engine
// slot throughput at 1k / 10k / 100k nodes (make_network's clustered
// GreenOrbs-density network, order-independent pair-keyed link RNG and
// slot-keyed channel draws — the same configuration run_scale_sweep uses).
// Construction must scale near linearly in N — the spatial hash grid
// replaced the historical all-pairs O(N^2) loop precisely to make the 100k
// row of this bench finishable.
// Two sim segments per size, each through both engine modes — compact time
// (default) and the dense slot-by-slot loop — cross-checked for agreement:
//
//   * saturated: back-to-back generations (spacing 1), every slot carries
//     flood traffic, so the rows measure the staged loop's busy-slot cost
//     (compact can skip almost nothing here and the bench proves it);
//   * interactive: generations LDCF_SCALE_SPACING slots apart, the
//     low-duty-cycle deployment shape where most slots are provably idle —
//     this is the workload the compact engine exists for, and its
//     slots/sec column carries the headline speedup (virtual slots per
//     wall second; skipped slots are simulated time too).
//
// Env knobs: LDCF_SCALE_NODES (comma-separated sensor counts, default
// "1000,10000,100000"), LDCF_SCALE_MAX_SLOTS (saturated segment bound,
// default 5000), LDCF_SCALE_SPACING (interactive generation spacing,
// default 60000), LDCF_BENCH_PACKETS (default 2), LDCF_BENCH_REPS
// (best-of, default 3), LDCF_BENCH_REPORT (JSON output path, default
// BENCH_scale.json; empty disables it).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

struct ScaleRow {
  std::string label;
  std::uint64_t sensors = 0;
  std::uint64_t links = 0;
  double mean_degree = 0.0;
  double reachable_fraction = 0.0;  ///< sensors the source reaches.
  double build_seconds = 0.0;
  double nodes_per_sec = 0.0;
  std::uint64_t sim_slots = 0;
  double sim_seconds = 0.0;
  double slots_per_sec = 0.0;       ///< compact engine (the default mode).
  double sim_seconds_dense = 0.0;
  double slots_per_sec_dense = 0.0; ///< dense slot-by-slot loop, same run.
  double compact_speedup = 0.0;     ///< slots_per_sec / slots_per_sec_dense.
  std::uint64_t slots_skipped = 0;  ///< slots the compact run fast-forwarded.
  bool truncated = false;
  // Interactive segment: sparse generations, mostly idle slots.
  std::uint64_t interactive_slots = 0;
  double interactive_seconds = 0.0;
  double interactive_slots_per_sec = 0.0;
  double interactive_seconds_dense = 0.0;
  double interactive_slots_per_sec_dense = 0.0;
  double interactive_speedup = 0.0;
  std::uint64_t interactive_slots_skipped = 0;
  bool interactive_truncated = false;
};

std::vector<std::uint32_t> sensor_counts() {
  std::string spec = "1000,10000,100000";
  if (const char* env = std::getenv("LDCF_SCALE_NODES")) spec = env;
  std::vector<std::uint32_t> counts;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.size() - pos
                                                    : comma - pos);
    const long value = std::strtol(token.c_str(), nullptr, 10);
    if (value > 0) counts.push_back(static_cast<std::uint32_t>(value));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (counts.empty()) counts = {1000, 10000, 100000};
  return counts;
}

std::uint64_t max_slots() {
  if (const char* env = std::getenv("LDCF_SCALE_MAX_SLOTS")) {
    const long long value = std::strtoll(env, nullptr, 10);
    if (value > 0) return static_cast<std::uint64_t>(value);
  }
  return 5000;
}

std::uint32_t interactive_spacing() {
  if (const char* env = std::getenv("LDCF_SCALE_SPACING")) {
    const long long value = std::strtoll(env, nullptr, 10);
    if (value > 0) return static_cast<std::uint32_t>(value);
  }
  return 60'000;
}

void write_bench_report(const std::string& path,
                        const ldcf::sim::SimConfig& config, std::uint32_t reps,
                        const std::vector<ScaleRow>& rows) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::cerr << "bench_scale: cannot open report file " << path << "\n";
    return;
  }
  ldcf::obs::JsonWriter json(out);
  json.begin_object()
      .field("schema", "ldcf.bench_report.v1")
      .field("bench", "scale");
  json.key("provenance");
  ldcf::obs::write_provenance(json, ldcf::obs::Provenance::current());
  json.key("config")
      .begin_object()
      .field("num_packets", config.num_packets)
      .field("duty_percent", 100.0 * config.duty.ratio())
      .field("max_slots", config.max_slots)
      .field("interactive_spacing",
             static_cast<std::uint64_t>(interactive_spacing()))
      .field("seed", config.seed)
      .field("channel_rng",
             config.channel_rng == ldcf::sim::ChannelRngMode::kSlotKeyed
                 ? "slot_keyed"
                 : "sequential")
      .field("best_of", reps)
      .end_object();
  json.key("results").begin_array();
  for (const ScaleRow& row : rows) {
    json.begin_object()
        .field("label", row.label)
        .field("sensors", row.sensors)
        .field("links", row.links)
        .field("mean_degree", row.mean_degree)
        .field("reachable_fraction", row.reachable_fraction)
        .field("build_seconds", row.build_seconds)
        .field("nodes_per_sec", row.nodes_per_sec)
        .field("sim_slots", row.sim_slots)
        .field("sim_seconds", row.sim_seconds)
        .field("slots_per_sec", row.slots_per_sec)
        .field("sim_seconds_dense", row.sim_seconds_dense)
        .field("slots_per_sec_dense", row.slots_per_sec_dense)
        .field("compact_speedup", row.compact_speedup)
        .field("slots_skipped", row.slots_skipped)
        .field("truncated", row.truncated)
        .field("interactive_slots", row.interactive_slots)
        .field("interactive_seconds", row.interactive_seconds)
        .field("interactive_slots_per_sec", row.interactive_slots_per_sec)
        .field("interactive_seconds_dense", row.interactive_seconds_dense)
        .field("interactive_slots_per_sec_dense",
               row.interactive_slots_per_sec_dense)
        .field("interactive_speedup", row.interactive_speedup)
        .field("interactive_slots_skipped", row.interactive_slots_skipped)
        .field("interactive_truncated", row.interactive_truncated)
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

  const std::vector<std::uint32_t> counts = sensor_counts();
  const std::uint32_t reps = bench::repetitions();

  sim::SimConfig config;
  config.duty = DutyCycle::from_ratio(bench::kPaperDuty);
  config.num_packets =
      bench::packet_count() < 100 ? bench::packet_count() : 2;
  config.seed = bench::kRunSeed;
  config.max_slots = max_slots();
  // The large-N configuration mirrors run_scale_sweep: pair-keyed links
  // (below) and slot-keyed channel draws, both order-independent.
  config.channel_rng = sim::ChannelRngMode::kSlotKeyed;

  std::cout << "=== Topology + engine scaling (dbao, M = "
            << config.num_packets << ", duty "
            << 100.0 * config.duty.ratio() << "%, saturated segment <= "
            << config.max_slots << " slots, interactive spacing "
            << interactive_spacing() << ", best of " << reps << ") ===\n";

  Table table({"sensors", "links", "degree", "build ms", "nodes/sec",
               "sim slots", "sim ms", "slots/sec", "speedup", "int slots",
               "int slots/sec", "int speedup"});
  std::vector<ScaleRow> rows;
  for (const std::uint32_t sensors : counts) {
    double build_best = 0.0;
    topology::Topology topo;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      topo = topology::make_network("clustered", sensors, 1,
                                    topology::LinkRngMode::kPairKeyed);
      const std::chrono::duration<double> elapsed = Clock::now() - start;
      if (rep == 0 || elapsed.count() < build_best) {
        build_best = elapsed.count();
      }
    }

    // Each segment runs through both engine modes: compact (the default)
    // and the dense slot-by-slot loop. The differential suite proves the
    // modes bit-identical; the cross-check keeps this bench honest about
    // it.
    const auto time_both_modes =
        [&](const sim::SimConfig& segment, sim::SimResult& result,
            double& compact_best, double& dense_best) -> bool {
      sim::SimResult dense_result;
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        sim::SimConfig compact_config = segment;
        compact_config.compact_time = true;
        const auto proto = protocols::make_protocol("dbao");
        const auto start = Clock::now();
        result = sim::run_simulation(topo, compact_config, *proto);
        const std::chrono::duration<double> elapsed = Clock::now() - start;
        if (rep == 0 || elapsed.count() < compact_best) {
          compact_best = elapsed.count();
        }
      }
      for (std::uint32_t rep = 0; rep < reps; ++rep) {
        sim::SimConfig dense_config = segment;
        dense_config.compact_time = false;
        const auto proto = protocols::make_protocol("dbao");
        const auto start = Clock::now();
        dense_result = sim::run_simulation(topo, dense_config, *proto);
        const std::chrono::duration<double> elapsed = Clock::now() - start;
        if (rep == 0 || elapsed.count() < dense_best) {
          dense_best = elapsed.count();
        }
      }
      if (dense_result.metrics.end_slot != result.metrics.end_slot ||
          dense_result.metrics.channel.attempts !=
              result.metrics.channel.attempts) {
        std::cerr << "bench_scale: dense/compact divergence at N=" << sensors
                  << " (end_slot " << dense_result.metrics.end_slot << " vs "
                  << result.metrics.end_slot << ", attempts "
                  << dense_result.metrics.channel.attempts << " vs "
                  << result.metrics.channel.attempts << ")\n";
        return false;
      }
      return true;
    };

    double sim_best = 0.0;
    double dense_best = 0.0;
    sim::SimResult result;
    if (!time_both_modes(config, result, sim_best, dense_best)) return 1;

    sim::SimConfig interactive = config;
    interactive.packet_spacing = interactive_spacing();
    interactive.max_slots =
        static_cast<std::uint64_t>(config.num_packets) *
        interactive.packet_spacing +
        config.max_slots;
    double interactive_best = 0.0;
    double interactive_dense_best = 0.0;
    sim::SimResult interactive_result;
    if (!time_both_modes(interactive, interactive_result, interactive_best,
                         interactive_dense_best)) {
      return 1;
    }

    ScaleRow row;
    row.label = "N";  // two-step append dodges a GCC 12 -Wrestrict warning.
    row.label += std::to_string(sensors);
    row.sensors = sensors;
    row.links = topo.num_links();
    row.mean_degree = topo.mean_degree();
    row.reachable_fraction = topo.reachable_fraction();
    row.build_seconds = build_best;
    row.nodes_per_sec = static_cast<double>(topo.num_nodes()) / build_best;
    row.sim_slots = result.metrics.end_slot;
    row.sim_seconds = sim_best;
    row.slots_per_sec =
        static_cast<double>(result.metrics.end_slot) / sim_best;
    row.sim_seconds_dense = dense_best;
    row.slots_per_sec_dense =
        static_cast<double>(result.metrics.end_slot) / dense_best;
    row.compact_speedup = row.slots_per_sec / row.slots_per_sec_dense;
    row.slots_skipped = result.profile.slots_skipped;
    row.truncated = result.metrics.truncated;
    row.interactive_slots = interactive_result.metrics.end_slot;
    row.interactive_seconds = interactive_best;
    row.interactive_slots_per_sec =
        static_cast<double>(interactive_result.metrics.end_slot) /
        interactive_best;
    row.interactive_seconds_dense = interactive_dense_best;
    row.interactive_slots_per_sec_dense =
        static_cast<double>(interactive_result.metrics.end_slot) /
        interactive_dense_best;
    row.interactive_speedup =
        row.interactive_slots_per_sec / row.interactive_slots_per_sec_dense;
    row.interactive_slots_skipped =
        interactive_result.profile.slots_skipped;
    row.interactive_truncated = interactive_result.metrics.truncated;
    rows.push_back(row);

    table.add_row({Table::num(row.sensors), Table::num(row.links),
                   Table::num(row.mean_degree, 1),
                   Table::num(1e3 * row.build_seconds, 1),
                   Table::num(row.nodes_per_sec, 0),
                   Table::num(row.sim_slots),
                   Table::num(1e3 * row.sim_seconds, 1),
                   Table::num(row.slots_per_sec, 0),
                   Table::num(row.compact_speedup, 2),
                   Table::num(row.interactive_slots),
                   Table::num(row.interactive_slots_per_sec, 0),
                   Table::num(row.interactive_speedup, 2)});
  }
  table.print(std::cout);

  // Near-linearity: if construction were quadratic, a 10x size step would
  // cost 100x; report the per-node cost drift between the extreme rows.
  if (rows.size() >= 2) {
    const ScaleRow& lo = rows.front();
    const ScaleRow& hi = rows.back();
    const double per_node_ratio =
        (hi.build_seconds / static_cast<double>(hi.sensors)) /
        (lo.build_seconds / static_cast<double>(lo.sensors));
    std::cout << "\nShape check: per-node build cost at N=" << hi.sensors
              << " is " << Table::num(per_node_ratio, 2) << "x the N="
              << lo.sensors
              << " cost (1.0 = perfectly linear; quadratic would be "
              << hi.sensors / lo.sensors << "x).\n";
  }

  const std::string report = bench::report_path("scale");
  if (!report.empty()) write_bench_report(report, config, reps, rows);
  return 0;
}
