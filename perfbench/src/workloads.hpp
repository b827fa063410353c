// The benchmark's two workloads. Each one sets up (timed several times
// for setup_s), runs its operation in a closed loop for the measuring
// budget, checks every output, and fills the Report. With tracing on it
// splits the budget between an untraced and a traced pass and derives the
// per-layer metrics from ldcf's StageProfile plus the benchmark's own spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ldcf/sim/profiler.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (trace CSV, Unix socket).
};

void run_paper_sweep(const Options& options, Report& report, Tracer& tracer);
void run_serve_mix(const Options& options, Report& report, Tracer& tracer);

/// Time `op` back to back until `budget_s` has passed and at least
/// `min_ops` ran; returns each call's wall time in seconds.
template <typename Op>
std::vector<double> measure(double budget_s, std::size_t min_ops, Op&& op) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (times.size() < min_ops || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    op();
    times.push_back(seconds_since(t0));
  }
  return times;
}

/// Set the timed end-to-end metrics: setup_s (median set-up), op_p50_ms
/// (median operation) and ops_per_s (operations over their summed time: the
/// loops are closed, so that is the loop's rate).
void report_timings(Report& report, const std::vector<double>& setup_seconds,
                    const std::vector<double>& op_seconds);

/// Set the twelve sim.<stage>_s metrics plus loop, dispatch, slot counts,
/// skip ratio and ns per executed slot from a (summed) profile.
void report_profile(Report& report, const ldcf::sim::StageProfile& profile);

/// Print "pin <name> <value>": deterministic counts that perfbench/run.py
/// compares against perfbench/pins.json for the seeds recorded there.
void print_pin(const std::string& name, std::uint64_t value);

/// Process peak resident set size in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
