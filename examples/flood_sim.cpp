// flood_sim — command-line simulation driver.
//
// The "downstream user" tool: run any protocol on a generated or loaded
// trace with full parameter control, emit a human table or CSV.
//
//   flood_sim [options]
//     --protocol NAME    opt | dbao | of | naive | xlayer   (default dbao)
//     --topo FILE        load topology from a trace file
//     --trace PATH       write a JSONL event trace of the run(s) to PATH
//                        (multi-rep runs get a per-trial suffix)
//     --sensors N        generate an N-sensor trace (default 298)
//     --generator KIND   clustered | uniform | grid | disk  (default
//                        clustered, GreenOrbs density scaled to N)
//     --keyed-links      order-independent per-pair link RNG (the large-N
//                        path; default is the sequential legacy stream)
//     --channel-rng seq|keyed  channel draw realization (default seq, the
//                        golden-pinned sequential stream; keyed switches to
//                        counter-based slot-keyed draws — order-independent
//                        and statistically equivalent)
//     --topo-seed S      generator seed (default 1)
//     --duty PCT         duty cycle percent (default 5)
//     --source NODE      flooding source node (default 0)
//     --slots-per-period K  active slots per period (default 1)
//     --packets M        number of flooded packets (default 100)
//     --spacing K        slots between packet generations (default 1)
//     --seed S           run seed (default 7)
//     --coverage F       coverage fraction (default 0.99)
//     --max-slots K      hard stop after K slots (marks the run truncated)
//     --kill NODE@SLOT   inject a node death (repeatable)
//     --burst SCALE,START,DUR,PERIOD  periodic link-quality bursts
//     --reps R           average over R seeds (seed, seed+1, ...; default 1)
//     --threads N        trial workers for --reps: 0 = all cores, 1 = serial
//     --csv              machine-readable per-packet output (single run only)
//     --compact-time on|off  compact time scale: fast-forward provably idle
//                        slots (default on; bit-identical either way — off
//                        forces the dense slot-by-slot loop)
//     --report PATH      write a provenance-stamped JSON report: config,
//                        topology fingerprint, git SHA, stage-profiler
//                        timings, delay/energy histograms (enables the
//                        stage profiler for the run)
//     --progress         print completion/ETA to stderr (--reps mode)
//     --analyze          run the causal trace analyzer on the run: prints
//                        dissemination trees, delay waterfalls and theory
//                        conformance (single run); with --reps, counts
//                        trials violating the paper's bounds
//     --timeline PATH    record a span timeline of the run (engine stages,
//                        channel sub-phases, worker-pool chunks, counter
//                        tracks) and write Chrome trace_event JSON to PATH —
//                        open it in Perfetto / chrome://tracing. Purely
//                        observational: results are bit-identical with or
//                        without it
//     --heartbeat PATH   append ldcf.heartbeat.v1 JSONL liveness records
//                        (slots, coverage, rate, ETA) to PATH; tail -f it
//     --heartbeat-secs S wall-clock seconds between heartbeat samples
//                        (default 5)
//     --watchdog S       attach a WatchdogObserver: declare a stall after S
//                        wall-clock seconds without progress (exit code 3
//                        with an ldcf.health.v1 diagnostic)
//     --watchdog-slots N stall after N executed slots without progress
//                        (deterministic variant; combinable with --watchdog)
//     --watchdog-report PATH  write the ldcf.health.v1 diagnostic JSON here
//                        when the watchdog trips (default: stderr)
//     --inject-stall SLOT  test hook: wrap the protocol so it stops
//                        proposing transmissions at SLOT while claiming
//                        every slot busy — a dense busy-loop stall the
//                        watchdog must catch (single-run mode only)
//     --series PATH      record windowed simulation-time telemetry (coverage
//                        growth, tx outcomes, duplicate/overhear activity,
//                        energy burn) and write an ldcf.timeseries.v1 JSON
//                        artifact to PATH; never forces the dense path, and
//                        with --reps the windows merge across seeds. Feeds
//                        anomaly causes into a tripped --watchdog diagnostic.
//                        Render it with the series_view tool
//     --netmap PATH      write the companion ldcf.netmap.v1 hot-spot map
//                        (spatial heatmap cells, top-K contended links,
//                        hottest nodes); implies series collection
//     --window-slots N   accumulation window width in slots for --series
//                        (default 1024; must be >= 1)
//     --top-k K          rows in the netmap's contended-links and hottest-
//                        nodes tables (default 10; 1..65536)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "ldcf/analysis/cancel.hpp"
#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/report.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/common/parse.hpp"
#include "ldcf/obs/heartbeat.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/obs/trace_analysis.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/trace_io.hpp"

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "flood_sim: " << message << " (see header comment for usage)\n";
  std::exit(2);
}

double parse_double(const char* text) {
  try {
    return ldcf::common::parse_double(text);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
}

std::uint64_t parse_u64(const char* text) {
  try {
    return ldcf::common::parse_u64(text);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
}

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
  std::string trace_path;  // JSONL event-trace output (see trace_observer.hpp).
  std::string report_path;  // JSON run report (see obs/report.hpp).
  std::string timeline_path;   // Chrome trace_event JSON (obs/timeline.hpp).
  std::string heartbeat_path;  // ldcf.heartbeat.v1 JSONL (obs/heartbeat.hpp).
  double heartbeat_seconds = 5.0;
  std::string watchdog_report_path;  // ldcf.health.v1 JSON on a trip.
  ldcf::obs::WatchdogConfig watchdog_config;
  bool watchdog_enabled = false;
  std::string series_path;  // ldcf.timeseries.v1 JSON (obs/timeseries.hpp).
  std::string netmap_path;  // ldcf.netmap.v1 JSON (obs/timeseries.hpp).
  ldcf::obs::TimeSeriesOptions series_options;
  std::optional<SlotIndex> inject_stall;
  bool show_progress = false;
  bool analyze = false;
  std::uint32_t sensors = 298;
  std::string generator = "clustered";
  bool keyed_links = false;
  std::uint64_t topo_seed = 1;
  double duty_pct = 5.0;
  bool csv = false;
  std::uint32_t reps = 1;
  std::uint32_t threads = 0;
  sim::SimConfig config;
  config.num_packets = 100;
  config.seed = 7;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--protocol") {
      protocol = next();
    } else if (arg == "--topo") {
      topo_path = next();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--report") {
      report_path = next();
    } else if (arg == "--timeline") {
      timeline_path = next();
    } else if (arg == "--heartbeat") {
      heartbeat_path = next();
    } else if (arg == "--heartbeat-secs") {
      heartbeat_seconds = parse_double(next());
    } else if (arg == "--watchdog") {
      watchdog_config.stall_wall_seconds = parse_double(next());
      watchdog_enabled = true;
    } else if (arg == "--watchdog-slots") {
      watchdog_config.stall_slot_budget = parse_u64(next());
      watchdog_enabled = true;
    } else if (arg == "--watchdog-report") {
      watchdog_report_path = next();
    } else if (arg == "--series") {
      series_path = next();
    } else if (arg == "--netmap") {
      netmap_path = next();
    } else if (arg == "--window-slots") {
      series_options.window_slots = parse_u64(next());
    } else if (arg == "--top-k") {
      series_options.top_k = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--inject-stall") {
      inject_stall = parse_u64(next());
    } else if (arg == "--progress") {
      show_progress = true;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--sensors") {
      sensors = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--generator") {
      generator = next();
    } else if (arg == "--keyed-links") {
      keyed_links = true;
    } else if (arg == "--topo-seed") {
      topo_seed = parse_u64(next());
    } else if (arg == "--duty") {
      duty_pct = parse_double(next());
    } else if (arg == "--slots-per-period") {
      config.slots_per_period = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--source") {
      config.source = static_cast<NodeId>(parse_u64(next()));
    } else if (arg == "--packets") {
      config.num_packets = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--spacing") {
      config.packet_spacing = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--seed") {
      config.seed = parse_u64(next());
    } else if (arg == "--coverage") {
      config.coverage_fraction = parse_double(next());
    } else if (arg == "--max-slots") {
      config.max_slots = parse_u64(next());
    } else if (arg == "--kill") {
      const std::string spec = next();
      const auto at = spec.find('@');
      if (at == std::string::npos) usage_error("--kill wants NODE@SLOT");
      config.perturbations.node_failures.push_back(sim::NodeFailure{
          static_cast<NodeId>(parse_u64(spec.substr(0, at).c_str())),
          parse_u64(spec.substr(at + 1).c_str())});
    } else if (arg == "--burst") {
      const std::string spec = next();
      double scale = 0.0;
      unsigned long long start = 0;
      unsigned long long dur = 0;
      unsigned long long period = 0;
      if (std::sscanf(spec.c_str(), "%lf,%llu,%llu,%llu", &scale, &start,
                      &dur, &period) != 4) {
        usage_error("--burst wants SCALE,START,DUR,PERIOD");
      }
      config.perturbations.burst =
          sim::LinkBurst{scale, start, dur, period};
    } else if (arg == "--reps") {
      reps = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--threads") {
      threads = static_cast<std::uint32_t>(parse_u64(next()));
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--channel-rng") {
      const std::string mode = next();
      if (mode == "seq") {
        config.channel_rng = sim::ChannelRngMode::kSequential;
      } else if (mode == "keyed") {
        config.channel_rng = sim::ChannelRngMode::kSlotKeyed;
      } else {
        usage_error("--channel-rng wants seq|keyed");
      }
    } else if (arg == "--compact-time") {
      const std::string mode = next();
      if (mode == "on") {
        config.compact_time = true;
      } else if (mode == "off") {
        config.compact_time = false;
      } else {
        usage_error("--compact-time wants on|off");
      }
    } else {
      usage_error("unknown option " + arg);
    }
  }
  config.duty = DutyCycle::from_ratio(duty_pct / 100.0);
  // --netmap implies series collection (one observer produces both).
  const bool collect_series = !series_path.empty() || !netmap_path.empty();
  if (collect_series) obs::validate(series_options);  // fail before the run.
  // A report without profiler timings is half a report: turn the stage
  // profiler on for reported runs (it never changes results, only adds
  // two clock reads per stage per slot).
  if (!report_path.empty()) config.profiling = true;
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_seconds = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  topology::Topology topo =
      topo_path.empty()
          ? [&] {
              const auto link_rng = keyed_links
                                        ? topology::LinkRngMode::kPairKeyed
                                        : topology::LinkRngMode::kSequential;
              if (generator == "clustered") {
                topology::ClusterConfig gen =
                    topology::scaled_cluster_config(sensors, topo_seed);
                gen.base.link_rng = link_rng;
                // Connectivity retries are prohibitive at large N; the
                // engine clips its coverage target to the reachable set.
                if (sensors > 2000) gen.base.require_connectivity = false;
                return topology::make_clustered(gen);
              }
              topology::GeneratorConfig gen;
              gen.num_sensors = sensors;
              gen.area_side_m =
                  560.0 * std::sqrt(static_cast<double>(sensors) / 298.0);
              gen.radio.path_loss_exponent = 3.3;
              gen.seed = topo_seed;
              gen.link_rng = link_rng;
              if (sensors > 2000) gen.require_connectivity = false;
              if (generator == "uniform") return topology::make_uniform(gen);
              if (generator == "grid") return topology::make_grid(gen);
              if (generator == "disk") {
                return topology::make_uniform_disk(gen);
              }
              usage_error("unknown --generator " + generator +
                          " (wants clustered|uniform|grid|disk)");
            }()
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

  // One Timeline shared by everything the run spawns (engine thread, pool
  // workers, trial workers): each records into its own lane.
  std::optional<obs::Timeline> timeline;
  if (!timeline_path.empty()) timeline.emplace();
  if (timeline) config.timeline = &*timeline;

  if (reps > 1) {
    // Multi-seed mode: average over reps seeds, fanning the trials out
    // over the parallel trial executor (bit-identical at any --threads).
    if (csv) usage_error("--csv reports one run; drop it or use --reps 1");
    if (inject_stall) usage_error("--inject-stall is single-run only");
    analysis::ExperimentConfig experiment;
    experiment.base = config;
    experiment.repetitions = reps;
    experiment.threads = threads;
    experiment.trace_path = trace_path;  // per-trial suffix added downstream.
    experiment.report_path = report_path;
    experiment.check_conformance = analyze;
    experiment.heartbeat_path = heartbeat_path;
    experiment.heartbeat_seconds = heartbeat_seconds;
    if (watchdog_enabled) experiment.watchdog = watchdog_config;
    experiment.collect_series = collect_series;
    experiment.series = series_options;
    if (show_progress) experiment.progress = make_progress_printer();
    // Ctrl-C / SIGTERM request cooperative cancellation: in-flight trials
    // finish, remaining seeds are abandoned, and we exit 130 below without
    // tearing any report file (all writers go through write_file_atomic).
    analysis::install_cancel_signal_handlers();
    analysis::ProtocolPoint point;
    try {
      point = analysis::run_point(topo, protocol, config.duty, experiment);
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
    if (collect_series) {
      write_series_artifacts(point.timeseries, point.netmap);
    }
    std::cout << "protocol " << point.protocol << " on " << topo.num_sensors()
              << " sensors, duty " << 100.0 * config.duty.ratio() << "% x"
              << config.slots_per_period << ", M = " << config.num_packets
              << ", seeds " << config.seed << ".." << config.seed + reps - 1
              << "\n";
    std::cout << "  delay slots: mean " << point.mean_delay << " +/- "
              << point.delay_stddev << " (queueing "
              << point.mean_queueing_delay << ", transmission "
              << point.mean_transmission_delay << ")\n";
    std::cout << "  channel per run: " << point.attempts << " attempts, "
              << point.failures << " failures, " << point.duplicates
              << " duplicates\n";
    std::cout << "  energy per run: " << point.energy_total
              << ", est. lifetime " << point.lifetime_slots << " slots\n";
    if (analyze) {
      std::cout << "  conformance: " << point.violating_trials << " of "
                << reps << " trials violate the paper's bounds\n";
    }
    return point.all_covered ? 0 : 1;
  }

  auto proto = protocols::make_protocol(protocol);
  if (inject_stall) {
    proto = std::make_unique<StallAfterProtocol>(std::move(proto),
                                                 *inject_stall);
  }
  sim::MultiObserver fan_out;
  std::optional<sim::TraceObserver> trace;
  if (!trace_path.empty()) fan_out.add(&trace.emplace(trace_path));
  // A timeline without stats would have only the engine's builtin counter
  // tracks; attach the stats observer so the registry-backed tracks
  // (delay/channel/energy histogram counters) get sampled too.
  std::optional<obs::StatsObserver> stats;
  if (!report_path.empty() || timeline) {
    fan_out.add(&stats.emplace(topo.num_nodes(), config.num_packets));
  }
  std::optional<obs::TimelineMetricsObserver> timeline_metrics;
  if (timeline && stats) {
    fan_out.add(&timeline_metrics.emplace(*timeline, stats->registry()));
  }
  std::optional<obs::HeartbeatWriter> heartbeat_writer;
  std::optional<obs::HeartbeatObserver> heartbeat;
  if (!heartbeat_path.empty()) {
    heartbeat_writer.emplace(heartbeat_path);
    fan_out.add(&heartbeat.emplace(*heartbeat_writer, 0, protocol,
                                   config.num_packets, heartbeat_seconds));
  }
  // The series observer precedes the watchdog so a tripped invariant sees
  // up-to-date windows when it snapshots current_causes().
  std::optional<obs::TimeSeriesObserver> series;
  if (collect_series) {
    obs::TimeSeriesOptions run_series = series_options;
    run_series.energy = config.energy;
    series.emplace(topo, run_series);
    fan_out.add(&*series);
  }
  std::optional<obs::WatchdogObserver> watchdog;
  if (watchdog_enabled) {
    fan_out.add(&watchdog.emplace(watchdog_config));
    if (series) watchdog->set_cause_source(&*series);
  }
  std::optional<obs::FlightRecorder> recorder;
  if (analyze) fan_out.add(&recorder.emplace());
  sim::SimResult result;
  try {
    result = sim::run_simulation(
        topo, config, *proto, fan_out.size() > 0 ? &fan_out : nullptr);
  } catch (const obs::WatchdogError& error) {
    if (timeline) timeline->write_chrome_trace_file(timeline_path);
    return report_watchdog_trip(error, watchdog_report_path);
  }
  if (timeline) timeline->write_chrome_trace_file(timeline_path);
  if (series) write_series_artifacts(series->series(), series->netmap());
  if (!report_path.empty()) {
    obs::RunReportContext report;
    report.tool = "flood_sim";
    report.protocol = proto->name();
    report.topo = &topo;
    report.config = &config;
    report.result = &result;
    report.metrics = &stats->registry();
    if (series) {
      report.timeseries = &series->series();
      report.netmap = &series->netmap();
    }
    report.wall_seconds = wall_seconds();
    obs::write_run_report_file(report_path, report);
  }
  if (result.metrics.truncated) {
    std::cerr << "flood_sim: warning: run stopped at max_slots ("
              << config.max_slots << ") before reaching coverage\n";
  }
  if (recorder) {
    obs::TraceAnalysisOptions options;
    options.num_sensors = topo.num_sensors();
    options.duty_period = config.duty.period;
    options.source = config.source;
    const obs::TraceAnalysis analysis =
        obs::analyze_trace(recorder->events(), options);
    obs::print_trace_analysis(std::cout, analysis);
  }

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
