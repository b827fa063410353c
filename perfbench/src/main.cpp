// ldcf_perfbench: one process runs one workload and prints its metrics.
//
//   ldcf_perfbench --workload paper_sweep|serve_mix --seed N
//                  --seconds S --trace 0|1 --work-dir DIR
//   ldcf_perfbench --describe
//
// The last stdout line is the result object {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics with --trace 0, the
// per-layer metrics with --trace 1. Exit status 1 when any check failed.
#include <sys/resource.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "ldcf/common/parse.hpp"
#include "workloads.hpp"

namespace perfbench {

void report_timings(Report& report, const std::vector<double>& setup_seconds,
                    const std::vector<double>& op_seconds) {
  double total = 0.0;
  for (const double t : op_seconds) total += t;
  report.set("setup_s", median(setup_seconds));
  report.set("op_p50_ms", 1e3 * median(op_seconds));
  report.set("ops_per_s",
             total > 0 ? static_cast<double>(op_seconds.size()) / total : 0.0);
  std::cout << "ops " << op_seconds.size() << " timed, iqr/median "
            << iqr_share(op_seconds) << "\n";
}

void report_profile(Report& report, const ldcf::sim::StageProfile& profile) {
  for (std::size_t s = 0; s < ldcf::sim::kNumStages; ++s) {
    report.set("sim." + std::string(ldcf::sim::kStageNames[s]) + "_s",
               static_cast<double>(profile.stage_ns[s]) * 1e-9);
  }
  const double loop_s = static_cast<double>(profile.wall_ns) * 1e-9;
  const double stages_s = static_cast<double>(profile.total_stage_ns()) * 1e-9;
  report.set("sim.loop_s", loop_s);
  report.set("sim.dispatch_s", loop_s - stages_s);
  report.set("sim.slots_executed", static_cast<double>(profile.slots));
  report.set("sim.slots_skipped", static_cast<double>(profile.slots_skipped));
  const double total_slots =
      static_cast<double>(profile.slots + profile.slots_skipped);
  report.set("sim.skip_ratio",
             total_slots > 0 ? static_cast<double>(profile.slots_skipped) /
                                   total_slots
                             : 0.0);
  report.set("sim.ns_per_executed_slot",
             profile.slots > 0 ? static_cast<double>(profile.wall_ns) /
                                     static_cast<double>(profile.slots)
                               : 0.0);
}

void print_pin(const std::string& name, std::uint64_t value) {
  std::cout << "pin " << name << " " << value << "\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench

namespace {

int usage(const char* message) {
  std::cerr << "ldcf_perfbench: " << message
            << "\nusage: ldcf_perfbench --workload paper_sweep|serve_mix "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n"
               "       ldcf_perfbench --describe\n";
  return 2;
}

void describe(std::ostream& out) {
  using perfbench::MetricKind;
  for (const MetricKind kind : {MetricKind::kEndToEnd, MetricKind::kPerLayer}) {
    for (const perfbench::MetricDecl& decl : perfbench::metric_table()) {
      if (decl.kind != kind) continue;
      out << (kind == MetricKind::kEndToEnd ? "end_to_end " : "per_layer ")
          << decl.name << " " << decl.unit << "\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string work_dir;
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--describe") {
        describe(std::cout);
        return 0;
      }
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = ldcf::common::parse_u64(value, "--seed");
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = ldcf::common::parse_double(value, "--seconds");
        have_seconds = options.seconds > 0.0;
      } else if (flag == "--trace") {
        const std::uint64_t trace = ldcf::common::parse_u64(value, "--trace");
        if (trace > 1) return usage("--trace must be 0 or 1");
        options.trace = trace == 1;
        have_trace = true;
      } else if (flag == "--work-dir") {
        work_dir = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace ||
      work_dir.empty()) {
    return usage("--workload, --seed, --seconds (> 0), --trace and "
                 "--work-dir are required");
  }
  std::filesystem::create_directories(work_dir);
  options.work_dir = work_dir;

  Report report;
  Tracer tracer(false);
  try {
    if (workload == "paper_sweep") {
      run_paper_sweep(options, report, tracer);
    } else if (workload == "serve_mix") {
      run_serve_mix(options, report, tracer);
    } else {
      return usage(("unknown workload " + workload).c_str());
    }
  } catch (const std::exception& e) {
    report.check(false, "workload threw: " + std::string(e.what()));
  }
  report.set("peak_rss_mb", peak_rss_mb());
  report.set("e2e.failed_ratio",
             static_cast<double>(report.failed()) /
                 static_cast<double>(std::max<std::uint64_t>(
                     report.attempted(), 1)));
  if (options.trace) {
    std::ofstream spans(work_dir + "/" + workload + "-spans.json");
    tracer.write_chrome_trace(spans);
  }
  report.write_table(std::cout);
  report.write_result(std::cout, options.trace ? MetricKind::kPerLayer
                                               : MetricKind::kEndToEnd);
  return report.failed() == 0 ? 0 : 1;
}
