// Compare OPT / DBAO / OF / naive on the same trace — the §V experiment at
// one operating point, via the public experiment API. Demonstrates the
// trace-driven workflow: the topology is written to a trace file and loaded
// back, exactly as a real measurement trace would be.
//
// All protocols run as one parallel sweep (threads: 0 = all cores,
// 1 = serial); the numbers are bit-identical at any thread count.
// `protocol_comparison --help` lists the flags and positionals.
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/knobs.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace ldcf;

  analysis::ExperimentConfig config;
  config.base.num_packets = 20;
  double watchdog_seconds = 0.0;
  std::string channel_rng = "seq";
  double duty_percent = 5.0;

  common::OptionTable cli("protocol_comparison",
                          "Compare every protocol at one operating point.");
  cli.add("--report", &config.report_path,
          {"PATH", "write an ldcf.sweep_report.v2 JSON document"})
      .add("--channel-rng", &channel_rng, analysis::knobs::channel_rng())
      .add("--heartbeat", &config.heartbeat_path,
           {"PATH", "stream ldcf.heartbeat.v1 JSONL for every trial"})
      .add("--watchdog", &watchdog_seconds,
           {"S", "abort after S wall seconds without progress (exit 3); "
                 "0 = off"})
      .add("--series", &config.trial.collect_series,
           {"", "collect windowed telemetry per trial"})
      .positional("duty_percent", &duty_percent, analysis::knobs::duty_pct(),
                  false)
      .positional("num_packets", &config.base.num_packets,
                  analysis::knobs::packets(), false)
      .positional("seed", &config.base.seed, {"S", "topology and run seed"},
                  false)
      .positional("threads", &config.threads, {"N", "0 = all cores"}, false)
      .positional("event_trace_path", &config.trial.trace_path,
                  {"PATH", "per-trial JSONL event traces"}, false);
  cli.parse_or_exit(argc, argv);
  config.base.channel_rng = channel_rng == "keyed"
                                ? sim::ChannelRngMode::kSlotKeyed
                                : sim::ChannelRngMode::kSequential;
  if (watchdog_seconds > 0.0) {
    config.trial.watchdog.emplace().stall_wall_seconds = watchdog_seconds;
  }
  if (!config.report_path.empty()) config.base.profiling = true;

  // Trace-driven: generate once, round-trip through the trace format.
  const auto trace_path =
      std::filesystem::temp_directory_path() / "ldcf_comparison_trace.csv";
  topology::write_trace_file(topology::make_greenorbs_like(config.base.seed),
                             trace_path.string());
  const topology::Topology topo =
      topology::read_trace_file(trace_path.string());
  std::cout << "Loaded trace " << trace_path << " (" << topo.num_sensors()
            << " sensors)\n\n";

  // One sweep call: every protocol's trial runs concurrently.
  std::vector<analysis::ProtocolPoint> points;
  try {
    points = analysis::run_duty_sweep(
        topo, protocols::protocol_names(), {duty_percent / 100.0}, config);
  } catch (const obs::WatchdogError& error) {
    obs::write_health_report(std::cerr, error.diagnostic());
    std::cerr << "\nprotocol_comparison: watchdog tripped: " << error.what()
              << "\n";
    return 3;
  }

  analysis::Table table({"protocol", "mean delay", "queueing", "transmission",
                         "failures", "attempts", "duplicates"});
  for (const auto& point : points) {
    if (point.truncated) {
      std::cerr << "protocol_comparison: warning: " << point.protocol
                << " stopped at max_slots before reaching coverage\n";
    }
    table.add_row({point.protocol, analysis::Table::num(point.mean_delay),
                   analysis::Table::num(point.mean_queueing_delay),
                   analysis::Table::num(point.mean_transmission_delay),
                   analysis::Table::num(point.failures, 0),
                   analysis::Table::num(point.attempts, 0),
                   analysis::Table::num(point.duplicates, 0)});
  }
  std::cout << "Duty cycle " << duty_percent << "%, "
            << config.base.num_packets << " packets (delays in slots):\n";
  table.print(std::cout);
  std::cout << "\nExpected ordering (paper Fig. 9/10): opt < dbao < of << "
               "naive.\n";
  if (config.trial.collect_series) {
    std::cout << "\nSeries telemetry per protocol:\n";
    for (const auto& point : points) {
      const auto& ts = point.timeseries;
      const auto links = point.netmap.top_links();
      std::cout << "  " << point.protocol << ": " << ts.windows.size()
                << " windows of " << ts.window_slots << " slots, "
                << ts.anomalies.size() << " anomalies";
      if (!links.empty()) {
        std::cout << "; most contended link " << (links.front().first >> 32)
                  << "->" << (links.front().first & 0xffffffffULL) << " ("
                  << links.front().second.contention() << " failed of "
                  << links.front().second.attempts << " attempts)";
      }
      std::cout << "\n";
    }
  }
  if (!config.report_path.empty()) {
    std::cout << "Sweep report written to " << config.report_path << "\n";
  }
  return 0;
}
