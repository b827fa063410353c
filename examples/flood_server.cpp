// flood_server — the sweep service daemon.
//
// Binds a TCP (or Unix-domain) listener, accepts NDJSON job submissions,
// and executes them through the same analysis::run_point executor the CLI
// uses, memoizing immutable artifacts (topologies, schedules, energy
// trees) in a fingerprint-keyed LRU cache. See serve/server.hpp for the
// wire protocol.
//
// `flood_server --help` lists the flags.
//
// SIGINT/SIGTERM shut down cooperatively: in-flight trials finish, queued
// jobs get structured shutdown errors, the stats artifact (if requested)
// is written atomically, and the process exits 0.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>

#include "ldcf/analysis/cancel.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/serve/server.hpp"

int main(int argc, char** argv) {
  ldcf::serve::ServerConfig config;
  std::string stats_path;
  std::uint32_t port = config.endpoint.port;
  std::uint64_t max_queue = config.max_queued_jobs;
  std::uint64_t cache_mb = config.cache_budget_bytes >> 20;

  ldcf::common::OptionTable cli("flood_server",
                                "Serve sweep jobs over NDJSON sockets.");
  cli.add("--host", &config.endpoint.host, {"ADDR", "IPv4 listen address"})
      .add("--port", &port,
           ldcf::common::Knob("N", "TCP port; 0 = ephemeral").at_most(65535))
      .add("--unix", &config.endpoint.unix_path,
           {"PATH", "listen on a Unix socket instead"})
      .add("--workers", &config.job_workers, {"N", "concurrent job executors"})
      .add("--max-queue", &max_queue, {"N", "queued-job admission limit"})
      .add("--max-trials", &config.max_trials_per_job, {"N", "reps ceiling"})
      // 2^44 - 1 MiB is the largest budget whose byte count fits 64 bits.
      .add("--cache-mb", &cache_mb,
           ldcf::common::Knob("N", "artifact cache budget in MiB")
               .at_most(17592186044415.0))
      .add("--stats", &stats_path,
           {"FILE", "write an ldcf.server_stats.v1 artifact on shutdown"});
  cli.parse_or_exit(argc, argv);
  config.endpoint.port = static_cast<std::uint16_t>(port);
  config.max_queued_jobs = max_queue;
  config.cache_budget_bytes = cache_mb << 20;

  try {
    ldcf::serve::FloodServer server(config);
    server.start();
    if (config.endpoint.unix_path.empty()) {
      std::cout << "listening on " << server.port() << std::endl;
    } else {
      std::cout << "listening on " << config.endpoint.unix_path << std::endl;
    }

    ldcf::analysis::install_cancel_signal_handlers();
    while (!ldcf::analysis::cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cerr << "flood_server: shutdown signal received\n";
    server.stop();
    if (!stats_path.empty()) {
      server.write_stats_file(stats_path);
      std::cerr << "flood_server: stats written to " << stats_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "flood_server: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
