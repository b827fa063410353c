// Compare OPT / DBAO / OF / naive on the same trace — the §V experiment at
// one operating point, via the public experiment API. Demonstrates the
// trace-driven workflow: the topology is written to a trace file and loaded
// back, exactly as a real measurement trace would be.
//
//   ./protocol_comparison [--report PATH] [--channel-rng seq|keyed]
//                         [--heartbeat PATH] [--watchdog SECONDS] [--series]
//                         [duty_percent] [num_packets]
//                         [seed] [threads] [event_trace_path]
//
// All protocols run as one parallel sweep (threads: 0 = all cores,
// 1 = serial); the numbers are bit-identical at any thread count.
// --channel-rng keyed switches the channel to counter-based slot-keyed
// draws (order-independent, statistically equivalent to the default
// sequential stream). Numeric arguments parse strictly: a malformed one
// is a usage error (exit 2) naming the argument. When
// event_trace_path is given, every trial writes a JSONL event trace there
// with a per-trial "-<protocol>-T<period>-r<rep>" suffix. --report writes
// a provenance-stamped ldcf.sweep_report.v2 JSON document with per-protocol
// delay/energy histograms and stage-profiler timings. --heartbeat streams
// ldcf.heartbeat.v1 JSONL liveness records for every trial; --watchdog
// attaches a stall watchdog (S wall-clock seconds without progress aborts
// the sweep with an ldcf.health.v1 diagnostic on stderr and exit code 3).
// --series collects windowed simulation-time telemetry for every trial
// (merged per protocol across repetitions): a per-protocol summary prints
// after the table, and with --report each point gains "timeseries" and
// "netmap" sections in the sweep document.
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/common/parse.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace ldcf;

  // Peel off the --flag options, leaving the positional args in place.
  std::string report_path;
  std::string heartbeat_path;
  const char* watchdog_text = nullptr;
  bool collect_series = false;
  sim::ChannelRngMode channel_rng = sim::ChannelRngMode::kSequential;
  std::vector<char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "protocol_comparison: --report needs a path\n";
        return 2;
      }
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--channel-rng") == 0) {
      const std::string mode = i + 1 < argc ? argv[++i] : "";
      if (mode == "seq") {
        channel_rng = sim::ChannelRngMode::kSequential;
      } else if (mode == "keyed") {
        channel_rng = sim::ChannelRngMode::kSlotKeyed;
      } else {
        std::cerr << "protocol_comparison: --channel-rng wants seq|keyed\n";
        return 2;
      }
    } else if (std::strcmp(argv[i], "--heartbeat") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "protocol_comparison: --heartbeat needs a path\n";
        return 2;
      }
      heartbeat_path = argv[++i];
    } else if (std::strcmp(argv[i], "--watchdog") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "protocol_comparison: --watchdog needs seconds\n";
        return 2;
      }
      watchdog_text = argv[++i];
    } else if (std::strcmp(argv[i], "--series") == 0) {
      collect_series = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t nargs = positional.size();

  double watchdog_seconds = 0.0;
  double duty_percent = 5.0;
  std::uint32_t packets = 20;
  std::uint64_t seed = 1;
  std::uint32_t threads = 0;
  try {
    if (watchdog_text != nullptr) {
      watchdog_seconds = common::parse_double(watchdog_text, "--watchdog");
    }
    if (nargs > 0) {
      duty_percent = common::parse_double(positional[0], "duty_percent");
    }
    if (nargs > 1) packets = common::parse_u32(positional[1], "num_packets");
    if (nargs > 2) seed = common::parse_u64(positional[2], "seed");
    if (nargs > 3) threads = common::parse_u32(positional[3], "threads");
  } catch (const InvalidArgument& error) {
    std::cerr << "protocol_comparison: " << error.what() << "\n";
    return 2;
  }
  const std::string event_trace_path = nargs > 4 ? positional[4] : "";

  // Trace-driven: generate once, round-trip through the trace format.
  const auto trace_path =
      std::filesystem::temp_directory_path() / "ldcf_comparison_trace.csv";
  topology::write_trace_file(topology::make_greenorbs_like(seed),
                             trace_path.string());
  const topology::Topology topo =
      topology::read_trace_file(trace_path.string());
  std::cout << "Loaded trace " << trace_path << " (" << topo.num_sensors()
            << " sensors)\n\n";

  analysis::ExperimentConfig config;
  config.base.num_packets = packets;
  config.base.seed = seed;
  config.base.channel_rng = channel_rng;
  config.threads = threads;
  config.trace_path = event_trace_path;
  config.report_path = report_path;
  config.heartbeat_path = heartbeat_path;
  if (watchdog_seconds > 0.0) {
    obs::WatchdogConfig watchdog;
    watchdog.stall_wall_seconds = watchdog_seconds;
    config.watchdog = watchdog;
  }
  config.collect_series = collect_series;
  if (!report_path.empty()) config.base.profiling = true;

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
  std::cout << "Duty cycle " << duty_percent << "%, " << packets
            << " packets (delays in slots):\n";
  table.print(std::cout);
  std::cout << "\nExpected ordering (paper Fig. 9/10): opt < dbao < of << "
               "naive.\n";
  if (collect_series) {
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
  if (!report_path.empty()) {
    std::cout << "Sweep report written to " << report_path << "\n";
  }
  return 0;
}
