// flood_sim — command-line simulation driver.
//
// The "downstream user" tool: run any protocol on a generated or loaded
// trace with full parameter control, emit a human table or CSV. Every
// flag is a row of the option table in run_cli(); `flood_sim --help`
// prints them with their ranges and defaults.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ldcf/analysis/cancel.hpp"
#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/knobs.hpp"
#include "ldcf/analysis/report.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/common/parse.hpp"
#include "ldcf/obs/heartbeat.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/obs/trace_analysis.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/trace_io.hpp"

namespace {

// Completion/ETA line on stderr, rewritten in place with '\r'. The
// executor serializes progress callbacks and fills in elapsed/rate/ETA
// itself (see analysis::Progress), so this is pure formatting.
ldcf::analysis::ProgressFn make_progress_printer() {
  return [](const ldcf::analysis::Progress& p) {
    std::fprintf(stderr,
                 "\r  %zu/%zu trials, %.1fs elapsed, %.2f trials/s, eta %.1fs ",
                 p.completed, p.total, p.elapsed_seconds, p.tasks_per_sec,
                 p.eta_seconds);
    if (p.completed == p.total) std::fputc('\n', stderr);
    std::fflush(stderr);
  };
}

// Test hook behind --inject-stall: forward everything to the wrapped
// protocol until `stall_at`, then stop proposing transmissions while
// claiming every slot busy. The run degenerates into a dense busy-loop
// that makes no progress — exactly the pathology the watchdog's stall
// invariant exists to catch.
class StallAfterProtocol final : public ldcf::sim::FloodingProtocol {
 public:
  StallAfterProtocol(std::unique_ptr<ldcf::sim::FloodingProtocol> inner,
                     ldcf::SlotIndex stall_at)
      : inner_(std::move(inner)), stall_at_(stall_at) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void initialize(const ldcf::sim::SimContext& ctx) override {
    inner_->initialize(ctx);
  }
  void on_generate(ldcf::PacketId packet, ldcf::SlotIndex slot) override {
    inner_->on_generate(packet, slot);
  }
  void on_delivery(ldcf::NodeId receiver, ldcf::PacketId packet,
                   ldcf::NodeId from, ldcf::SlotIndex slot) override {
    inner_->on_delivery(receiver, packet, from, slot);
  }
  void on_outcome(const ldcf::sim::TxResult& result,
                  ldcf::SlotIndex slot) override {
    inner_->on_outcome(result, slot);
  }
  void on_overhear(ldcf::NodeId listener, ldcf::NodeId sender,
                   ldcf::PacketId packet, ldcf::SlotIndex slot) override {
    inner_->on_overhear(listener, sender, packet, slot);
  }
  void propose_transmissions(ldcf::SlotIndex slot,
                             std::span<const ldcf::NodeId> active_receivers,
                             std::vector<ldcf::sim::TxIntent>& out) override {
    if (slot >= stall_at_) return;  // stalled: silence, forever.
    inner_->propose_transmissions(slot, active_receivers, out);
  }
  [[nodiscard]] ldcf::SlotIndex next_busy_slot(
      ldcf::SlotIndex from) const override {
    // Claiming every slot from the stall point on defeats compact-time
    // fast-forwarding, so the engine spins densely with nothing to do.
    if (from >= stall_at_) return from;
    return std::min(inner_->next_busy_slot(from), stall_at_);
  }
  [[nodiscard]] bool wants_overhearing() const override {
    return inner_->wants_overhearing();
  }
  [[nodiscard]] bool collision_free_oracle() const override {
    return inner_->collision_free_oracle();
  }

 private:
  std::unique_ptr<ldcf::sim::FloodingProtocol> inner_;
  ldcf::SlotIndex stall_at_;
};

// Serialize a tripped watchdog: diagnostic to --watchdog-report (or
// stderr), a one-line summary either way, exit code 3.
int report_watchdog_trip(const ldcf::obs::WatchdogError& error,
                         const std::string& report_path) {
  if (report_path.empty()) {
    ldcf::obs::write_health_report(std::cerr, error.diagnostic());
    std::cerr << '\n';
  } else {
    ldcf::obs::write_health_report_file(report_path, error.diagnostic());
  }
  std::cerr << "flood_sim: watchdog tripped: " << error.what() << "\n";
  return 3;
}

}  // namespace

int run_cli(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "flood_sim: " << e.what() << "\n";
    return 2;
  }
}

int run_cli(int argc, char** argv) {
  using namespace ldcf;

  std::string protocol = "dbao";
  std::string topo_path;
  std::string timeline_path;   // Chrome trace_event JSON (obs/timeline.hpp).
  std::string watchdog_report_path;  // ldcf.health.v1 JSON on a trip.
  ldcf::obs::WatchdogConfig watchdog_config;
  std::string series_path;  // ldcf.timeseries.v1 JSON (obs/timeseries.hpp).
  std::string netmap_path;  // ldcf.netmap.v1 JSON (obs/timeseries.hpp).
  std::optional<SlotIndex> inject_stall;
  bool show_progress = false;
  std::uint32_t sensors = 298;
  std::string generator = "clustered";
  bool keyed_links = false;
  std::uint64_t topo_seed = 1;
  double duty_pct = 5.0;
  bool csv = false;
  // Flags land in the sweep config; a single run uses its `base`.
  analysis::ExperimentConfig experiment;
  sim::SimConfig& config = experiment.base;
  config.num_packets = 100;
  config.seed = 7;
  std::string channel_rng = "seq";
  std::string compact_time = "on";

  common::OptionTable cli("flood_sim", "Flood a topology with one protocol.");
  const auto burst = [&](std::string_view spec) {
    std::vector<std::string_view> fields;
    std::size_t from = 0;
    for (std::size_t comma; (comma = spec.find(',', from)) != spec.npos;) {
      fields.push_back(spec.substr(from, comma - from));
      from = comma + 1;
    }
    fields.push_back(spec.substr(from));
    if (fields.size() != 4) {
      common::reject("--burst", spec, "wants SCALE,START,DUR,PERIOD");
    }
    config.perturbations.burst = sim::LinkBurst{
        common::parse_double(fields[0], "--burst scale"),
        common::parse_u64(fields[1], "--burst start"),
        common::parse_u64(fields[2], "--burst duration"),
        common::parse_u64(fields[3], "--burst period")};
  };
  const auto kill = [&](std::string_view spec) {
    const auto at = spec.find('@');
    if (at == spec.npos) common::reject("--kill", spec, "wants NODE@SLOT");
    config.perturbations.node_failures.push_back(sim::NodeFailure{
        common::parse_u32(spec.substr(0, at), "--kill node"),
        common::parse_u64(spec.substr(at + 1), "--kill slot")});
  };
  cli.add("--protocol", &protocol, analysis::knobs::protocol())
      .add("--topo", &topo_path, {"FILE", "load the topology from a trace"})
      .add("--trace", &experiment.trial.trace_path,
           {"PATH", "write a JSONL event trace (per-trial suffix with --reps)"})
      .add("--sensors", &sensors, {"N", "generate an N-sensor topology"})
      .add("--generator", &generator, analysis::knobs::generator())
      .add("--keyed-links", &keyed_links,
           {"", "order-independent per-pair link RNG (the large-N path)"})
      .add("--channel-rng", &channel_rng, analysis::knobs::channel_rng())
      .add("--topo-seed", &topo_seed, {"S", "generator seed"})
      .add("--duty", &duty_pct, analysis::knobs::duty_pct())
      .add("--source", &config.source, {"NODE", "flooding source node"})
      .add("--slots-per-period", &config.slots_per_period,
           analysis::knobs::slots_per_period())
      .add("--packets", &config.num_packets, analysis::knobs::packets())
      .add("--spacing", &config.packet_spacing, analysis::knobs::spacing())
      .add("--seed", &config.seed, {"S", "run seed"})
      .add("--coverage", &config.coverage_fraction,
           analysis::knobs::coverage())
      .add("--max-slots", &config.max_slots,
           {"K", "hard stop after K slots (marks the run truncated)"})
      .add("--kill", kill, {"NODE@SLOT", "inject a node death (repeatable)"})
      .add("--burst", burst,
           {"SCALE,START,DUR,PERIOD", "periodic link-quality bursts"})
      .add("--reps", &experiment.repetitions, analysis::knobs::reps())
      .add("--threads", &experiment.threads,
           {"N", "--reps workers: 0 = all cores"})
      .add("--csv", &csv, {"", "per-packet CSV output (single run only)"})
      .add("--compact-time", &compact_time,
           common::Knob("", "off forces the dense slot loop (bit-identical)")
               .one_of({"on", "off"}))
      .add("--report", &experiment.report_path,
           {"PATH", "write a provenance-stamped JSON run report (turns the "
                    "stage profiler on)"})
      .add("--progress", &show_progress, {"", "completion/ETA on stderr"})
      .add("--analyze", &experiment.trial.check_conformance,
           {"", "run the causal trace analyzer (with --reps: count trials "
                "violating the paper's bounds)"})
      .add("--timeline", &timeline_path,
           {"PATH", "write a span timeline (engine stages, channel phases, "
                    "trial spans, counters) as Chrome trace_event JSON"})
      .add("--heartbeat", &experiment.heartbeat_path,
           {"PATH", "append ldcf.heartbeat.v1 JSONL liveness records"})
      .add("--heartbeat-secs", &experiment.trial.heartbeat_seconds,
           common::Knob("S", "seconds between heartbeats").above(0))
      .add("--watchdog", &watchdog_config.stall_wall_seconds,
           common::Knob("S", "stall after S wall seconds without progress: "
                             "exit 3 with an ldcf.health.v1 diagnostic (off "
                             "unless given)")
               .at_least(0))
      .add("--watchdog-slots", &watchdog_config.stall_slot_budget,
           {"N", "stall after N executed slots without progress (off unless "
                 "given)"})
      .add("--watchdog-report", &watchdog_report_path,
           {"PATH", "write a tripped watchdog's diagnostic here, not stderr"})
      .add("--inject-stall",
           [&](std::string_view slot) {
             inject_stall = common::parse_u64(slot, "--inject-stall");
           },
           {"SLOT", "test hook: stop proposing at SLOT while claiming every "
                    "slot busy (single run only)"})
      .add("--series", &series_path,
           {"PATH", "write ldcf.timeseries.v1 windowed telemetry"})
      .add("--netmap", &netmap_path,
           {"PATH", "write the ldcf.netmap.v1 hot-spot map (implies series)"})
      .add("--window-slots", &experiment.trial.series.window_slots,
           {"N", "series window width in slots"})
      .add("--top-k", &experiment.trial.series.top_k,
           {"K", "netmap table rows (1..65536)"});
  cli.parse_or_exit(argc, argv);
  if (experiment.repetitions > 1 && (csv || inject_stall)) {
    cli.usage_error("--csv and --inject-stall report one run; use --reps 1");
  }
  if (cli.seen("--watchdog") || cli.seen("--watchdog-slots")) {
    experiment.trial.watchdog = watchdog_config;
  }
  config.channel_rng = channel_rng == "keyed"
                           ? sim::ChannelRngMode::kSlotKeyed
                           : sim::ChannelRngMode::kSequential;
  config.compact_time = compact_time == "on";
  config.duty = DutyCycle::from_ratio(duty_pct / 100.0);
  // --netmap implies series collection (one observer produces both).
  experiment.trial.collect_series =
      !series_path.empty() || !netmap_path.empty();
  if (experiment.trial.collect_series) {
    obs::validate(experiment.trial.series);  // fail early.
  }
  // A report without profiler timings is half a report: turn the stage
  // profiler on for reported runs (it never changes results, only adds
  // two clock reads per stage per slot).
  if (!experiment.report_path.empty()) config.profiling = true;
  const auto wall_start = std::chrono::steady_clock::now();

  const topology::Topology topo =
      topo_path.empty()
          ? topology::make_network(generator, sensors, topo_seed,
                                   keyed_links
                                       ? topology::LinkRngMode::kPairKeyed
                                       : topology::LinkRngMode::kSequential)
          : topology::read_trace_file(topo_path);

  const auto write_series_artifacts = [&](const obs::TimeSeries& series,
                                          const obs::NetMap& netmap) {
    obs::SeriesReportContext ctx;
    ctx.tool = "flood_sim";
    ctx.protocol = protocol;
    ctx.topo = &topo;
    ctx.series = &series;
    ctx.netmap = &netmap;
    if (!series_path.empty()) {
      obs::write_timeseries_report_file(series_path, ctx);
    }
    if (!netmap_path.empty()) obs::write_netmap_report_file(netmap_path, ctx);
  };

  // One Timeline shared by everything the run spawns (the engine thread
  // and the trial workers): each records into its own lane.
  std::optional<obs::Timeline> timeline;
  if (!timeline_path.empty()) timeline.emplace();
  if (timeline) config.timeline = &*timeline;

  // With --reps, average over the seeds on the parallel trial executor
  // (bit-identical at any --threads); otherwise one run through the same
  // observer wiring. Every exit flushes the timeline first.
  const bool sweep = experiment.repetitions > 1;
  analysis::ProtocolPoint point;
  std::unique_ptr<sim::FloodingProtocol> proto;
  analysis::ObservedRun run;
  try {
    if (sweep) {
      if (show_progress) experiment.progress = make_progress_printer();
      // Ctrl-C / SIGTERM cancel cooperatively: in-flight trials finish, the
      // rest are abandoned, and we exit 130 below without tearing any
      // report file (all writers go through write_file_atomic).
      analysis::install_cancel_signal_handlers();
      point = analysis::run_point(topo, protocol, config.duty, experiment);
    } else {
      proto = protocols::make_protocol(protocol);
      if (inject_stall) {
        proto = std::make_unique<StallAfterProtocol>(std::move(proto),
                                                     *inject_stall);
      }
      analysis::TrialOptions options = experiment.trial;
      options.collect_stats |= !experiment.report_path.empty();
      std::optional<obs::HeartbeatWriter> heartbeat;
      if (!experiment.heartbeat_path.empty()) {
        options.heartbeat = &heartbeat.emplace(experiment.heartbeat_path);
      }
      run = analysis::run_observed(topo, *proto, config, options);
    }
  } catch (const analysis::CancelledError&) {
    if (timeline) timeline->write_chrome_trace_file(timeline_path);
    std::cerr << "flood_sim: cancelled by signal; in-flight trials "
                 "finished, partial sweep discarded\n";
    return 130;
  } catch (const obs::WatchdogError& error) {
    if (timeline) timeline->write_chrome_trace_file(timeline_path);
    return report_watchdog_trip(error, watchdog_report_path);
  }
  if (timeline) timeline->write_chrome_trace_file(timeline_path);
  if (experiment.trial.collect_series) {
    write_series_artifacts(sweep ? point.timeseries : run.timeseries,
                           sweep ? point.netmap : run.netmap);
  }
  if (sweep) {
    std::cout << "protocol " << point.protocol << " on " << topo.num_sensors()
              << " sensors, duty " << 100.0 * config.duty.ratio() << "% x"
              << config.slots_per_period << ", M = " << config.num_packets
              << ", seeds " << config.seed << ".."
              << config.seed + experiment.repetitions - 1 << "\n";
    std::cout << "  delay slots: mean " << point.mean_delay << " +/- "
              << point.delay_stddev << " (queueing "
              << point.mean_queueing_delay << ", transmission "
              << point.mean_transmission_delay << ")\n";
    std::cout << "  channel per run: " << point.attempts << " attempts, "
              << point.failures << " failures, " << point.duplicates
              << " duplicates\n";
    std::cout << "  energy per run: " << point.energy_total
              << ", est. lifetime " << point.lifetime_slots << " slots\n";
    if (experiment.trial.check_conformance) {
      std::cout << "  conformance: " << point.violating_trials << " of "
                << experiment.repetitions
                << " trials violate the paper's bounds\n";
    }
    return point.all_covered ? 0 : 1;
  }

  const sim::SimResult& result = run.result;
  if (!experiment.report_path.empty()) {
    obs::RunReportContext report;
    report.tool = "flood_sim";
    report.protocol = proto->name();
    report.topo = &topo;
    report.config = &config;
    report.result = &result;
    report.metrics = &run.metrics;
    if (experiment.trial.collect_series) {
      report.timeseries = &run.timeseries;
      report.netmap = &run.netmap;
    }
    report.wall_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    obs::write_run_report_file(experiment.report_path, report);
  }
  if (result.metrics.truncated) {
    std::cerr << "flood_sim: warning: run stopped at max_slots ("
              << config.max_slots << ") before reaching coverage\n";
  }
  if (run.analysis) obs::print_trace_analysis(std::cout, *run.analysis);

  if (csv) {
    analysis::Table table({"packet", "generated_at", "covered_at",
                           "total_delay", "queueing", "transmission"});
    for (const auto& rec : result.metrics.packets) {
      table.add_row({analysis::Table::num(std::uint64_t{rec.packet}),
                     analysis::Table::num(rec.generated_at),
                     rec.covered() ? analysis::Table::num(rec.covered_at)
                                   : "never",
                     analysis::Table::num(rec.total_delay()),
                     analysis::Table::num(rec.queueing_delay()),
                     analysis::Table::num(rec.transmission_delay())});
    }
    table.print_csv(std::cout);
    return result.metrics.all_covered ? 0 : 1;
  }

  std::cout << "protocol " << proto->name() << " on " << topo.num_sensors()
            << " sensors, duty " << 100.0 * config.duty.ratio() << "% x"
            << config.slots_per_period << ", M = " << config.num_packets
            << ", seed " << config.seed << "\n";
  std::cout << "  covered: " << 100.0 * result.metrics.covered_fraction()
            << "% of packets (target " << result.metrics.coverage_target
            << " sensors each)\n";
  std::cout << "  delay slots: mean " << result.metrics.mean_total_delay()
            << ", p50 " << result.metrics.delay_quantile(0.5) << ", p95 "
            << result.metrics.delay_quantile(0.95) << ", max "
            << result.metrics.max_total_delay() << "\n";
  std::cout << "  channel: " << result.metrics.channel.attempts
            << " attempts, " << result.metrics.channel.failures()
            << " failures (" << result.metrics.channel.losses << " loss, "
            << result.metrics.channel.collisions << " collision, "
            << result.metrics.channel.receiver_busy << " busy), "
            << result.metrics.channel.duplicates << " duplicates, "
            << result.metrics.channel.overhear_deliveries << " overheard\n";
  std::cout << "  energy: total " << result.energy.total << ", hottest node "
            << result.energy.max_node << "\n";
  return result.metrics.all_covered ? 0 : 1;
}
