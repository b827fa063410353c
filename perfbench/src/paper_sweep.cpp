// paper_sweep: the Fig. 10/11 grid — {of, dbao, opt} x duties 2%..20% x
// seeds — through analysis::run_duty_sweep on the GreenOrbs-like trace,
// written to CSV and read back the way the figure benches load it. It is
// what the paper's users run, and OF's proposal step dominates it; topology
// work is negligible here.
#include <array>
#include <cmath>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/report.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/trace_io.hpp"
#include "ldcf/topology/tree.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ldcf::DutyCycle;
using ldcf::analysis::ProtocolPoint;

const std::vector<std::string> kProtocols = {"of", "dbao", "opt"};
// Fig. 10's duties, minus 18% (its period, 6, is 16%'s too).
const std::vector<double> kDutyPercents = {2, 4, 6, 8, 10, 12, 14, 16, 20};
// The paper evaluates one deployment; the workload seed drives the trial
// seeds, not the trace, so every seed sweeps the same network.
constexpr std::uint64_t kTraceSeed = 1;
constexpr std::uint32_t kPackets = 20;
constexpr std::uint32_t kRepetitions = 2;
constexpr int kSetups = 25;
// Two workers, leaving half of the host's four cores to whatever else runs
// there: with four, a stall on any core held up the sweep, which waits for
// its slowest worker.
constexpr std::uint32_t kWorkers = 2;

/// Every deterministic ProtocolPoint field (the profile's timings and the
/// profiled-only slot count are wall-clock facts, not results).
bool same_point(const ProtocolPoint& a, const ProtocolPoint& b) {
  return a.protocol == b.protocol && a.duty_ratio == b.duty_ratio &&
         a.mean_delay == b.mean_delay && a.delay_stddev == b.delay_stddev &&
         a.mean_queueing_delay == b.mean_queueing_delay &&
         a.mean_transmission_delay == b.mean_transmission_delay &&
         a.failures == b.failures && a.attempts == b.attempts &&
         a.duplicates == b.duplicates && a.energy_total == b.energy_total &&
         a.lifetime_slots == b.lifetime_slots &&
         a.all_covered == b.all_covered && a.truncated == b.truncated &&
         a.truncated_trials == b.truncated_trials &&
         a.violating_trials == b.violating_trials &&
         a.profile.slots_skipped == b.profile.slots_skipped &&
         a.profile.gaps == b.profile.gaps;
}

bool same_points(const std::vector<ProtocolPoint>& a,
                 const std::vector<ProtocolPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_point(a[i], b[i])) return false;
  }
  return true;
}

/// The paper's shape: OF slowest at every duty, OPT below DBAO over the
/// grid, every point covered, no trial truncated. (At this grid's size the
/// OPT/DBAO gap at a single high duty is within trial noise; the full
/// M = 100 x 3-seed grid of bench_fig10 orders every duty.)
void check_shape(Report& report, const std::vector<ProtocolPoint>& points,
                 std::size_t duties) {
  bool of_slowest = true;
  double dbao_sum = 0.0;
  double opt_sum = 0.0;
  bool covered = true;
  for (std::size_t d = 0; d < duties; ++d) {
    const double of = points[d].mean_delay;
    const double dbao = points[duties + d].mean_delay;
    const double opt = points[2 * duties + d].mean_delay;
    of_slowest = of_slowest && dbao < of && opt < of;
    dbao_sum += dbao;
    opt_sum += opt;
    std::cout << "fig10 duty " << 100.0 * points[d].duty_ratio << "% of " << of
              << " dbao " << dbao << " opt " << opt << "\n";
  }
  for (const ProtocolPoint& point : points) {
    covered = covered && point.all_covered && !point.truncated;
  }
  report.check(of_slowest, "paper_sweep: DBAO < OF and OPT < OF at every duty");
  report.check(opt_sum < dbao_sum, "paper_sweep: OPT < DBAO over the grid");
  report.check(covered, "paper_sweep: every point covered, none truncated");
}

}  // namespace

void run_paper_sweep(const Options& options, Report& report, Tracer& tracer) {
  const std::string trace_path = options.work_dir + "/paper_sweep-trace-" +
                                 std::to_string(options.seed) + ".csv";

  // Setup: generate the trace, write it, load it back, seal the CSR.
  tracer.set_enabled(options.trace);
  ldcf::topology::Topology topo;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = Clock::now();
    {
      ldcf::topology::Topology generated = [&] {
        Tracer::Scope span(tracer, "topology.build");
        return ldcf::topology::make_greenorbs_like(kTraceSeed);
      }();
      ldcf::topology::write_trace_file(generated, trace_path);
    }
    topo = ldcf::topology::read_trace_file(trace_path);
    {
      Tracer::Scope span(tracer, "topology.seal");
      topo.seal();
    }
    setups.push_back(seconds_since(t0));
  }
  report.set("topology.links", static_cast<double>(topo.num_links()));
  print_pin("paper_sweep.links", topo.num_links());

  std::vector<double> duty_ratios;
  for (const double pct : kDutyPercents) duty_ratios.push_back(pct / 100.0);
  ldcf::analysis::ExperimentConfig config;
  config.base.num_packets = kPackets;
  config.base.profiling = false;
  config.repetitions = kRepetitions;
  config.threads = kWorkers;

  // Sweep k runs trial seed set k. Set 0 is the reference: the untimed
  // warm-up, the first timed sweep and every traced sweep run it and must
  // agree exactly. Later timed sweeps draw fresh sets, so a run's median
  // averages over many seed sets instead of repeating one.
  const auto set_seed = [&](std::uint64_t set) {
    return derive_seed(options.seed, 100 + set) % 1'000'000'000;
  };
  config.base.seed = set_seed(0);
  std::vector<ProtocolPoint> reference;
  std::uint64_t op = 0;
  const auto sweep = [&](ldcf::analysis::ExperimentConfig cfg,
                         std::uint64_t set, const char* what) {
    cfg.base.seed = set_seed(set);
    std::vector<ProtocolPoint> points;
    {
      Tracer::Scope span(tracer, "analysis.run_duty_sweep", ++op);
      points = ldcf::analysis::run_duty_sweep(topo, kProtocols, duty_ratios,
                                              cfg);
    }
    if (set != 0 || reference.empty()) {
      check_shape(report, points, duty_ratios.size());
      if (set == 0) reference = std::move(points);
      return;
    }
    report.check(same_points(points, reference),
                 std::string("paper_sweep: ") + what +
                     " sweep repeats the reference points");
  };

  tracer.set_enabled(false);
  sweep(config, 0, "warm-up");
  std::uint64_t next_set = 0;
  const double budget = options.trace ? 0.4 * options.seconds : options.seconds;
  const std::vector<double> untraced =
      measure(budget, 3, [&] { sweep(config, next_set++, "untraced"); });
  report_timings(report, setups, untraced);
  report.set("e2e.sweep_s", median(untraced));
  std::uint64_t attempts = 0;
  for (const ProtocolPoint& point : reference) {
    attempts += static_cast<std::uint64_t>(std::llround(point.attempts * kRepetitions));
  }
  print_pin("paper_sweep.attempts", attempts);
  if (!options.trace) return;

  tracer.set_enabled(true);
  // Serial pass, profiled: every trial through run_trial, every cell through
  // reduce_trials. Its points must equal the parallel sweep's (threads 1 =
  // N) and its deterministic counts the untraced run's (tracing on = off).
  ldcf::analysis::ExperimentConfig traced = config;
  traced.base.profiling = true;
  std::map<std::string, ldcf::sim::StageProfile> by_protocol;
  std::map<std::string, double> protocol_seconds;
  ldcf::sim::StageProfile total_profile;
  std::vector<double> trial_times;
  std::vector<ProtocolPoint> serial_points;
  double serial_seconds = 0.0;
  bool stages_within_loop = true;
  for (const std::string& protocol : kProtocols) {
    for (const double ratio : duty_ratios) {
      const DutyCycle duty = DutyCycle::from_ratio(ratio);
      std::vector<ldcf::analysis::TrialStats> trials;
      for (std::uint32_t rep = 0; rep < kRepetitions; ++rep) {
        ldcf::sim::SimConfig trial_config = traced.base;
        trial_config.duty = duty;
        trial_config.seed = traced.base.seed + rep;
        const auto t0 = Clock::now();
        {
          Tracer::Scope span(tracer, "analysis.run_trial." + protocol);
          trials.push_back(ldcf::analysis::run_trial(
              topo, protocol, trial_config,
              ldcf::analysis::TrialOptions{}));
        }
        const double elapsed = seconds_since(t0);
        trial_times.push_back(elapsed);
        serial_seconds += elapsed;
        protocol_seconds[protocol] += elapsed;
        const ldcf::sim::StageProfile& profile = trials.back().profile;
        stages_within_loop =
            stages_within_loop && profile.total_stage_ns() <= profile.wall_ns;
        by_protocol[protocol].merge(profile);
        total_profile.merge(profile);
      }
      Tracer::Scope span(tracer, "analysis.reduce_trials");
      serial_points.push_back(
          ldcf::analysis::reduce_trials(protocol, duty, trials));
    }
  }
  report.check(same_points(serial_points, reference),
               "paper_sweep: serial run_trial/reduce_trials points equal the "
               "parallel sweep's");
  report.check(stages_within_loop,
               "paper_sweep: summed stage time within sim.loop_s per trial");
  report.check(total_profile.slots + total_profile.slots_skipped > 0,
               "paper_sweep: traced trials executed slots");

  // Traced sweeps: profiling on inside ldcf plus the benchmark's spans, over
  // the same seed sets as the untraced ones (set 0 first, so it is checked
  // against the unprofiled reference: tracing on = off).
  std::uint64_t traced_set = 0;
  const std::vector<double> traced_times =
      measure(0.4 * options.seconds, 3,
              [&] { sweep(traced, traced_set++, "traced"); });

  std::string report_json;
  std::vector<double> report_times;
  for (int i = 0; i < 5; ++i) {
    std::ostringstream out;
    ldcf::analysis::SweepReportContext context;
    context.tool = "run_duty_sweep";
    context.topo = &topo;
    context.config = &config;
    context.points = &reference;
    const auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "obs.write_sweep_report");
      ldcf::analysis::write_sweep_report(out, context);
    }
    report_times.push_back(seconds_since(t0));
    report_json = out.str();
  }

  std::vector<double> tree_times;
  std::vector<double> derive_times;
  for (int i = 0; i < 5; ++i) {
    auto t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "topology.build_etx_tree");
      (void)ldcf::topology::build_etx_tree(topo, 0);
    }
    tree_times.push_back(seconds_since(t0));
    ldcf::sim::SimConfig derive_config = config.base;
    derive_config.duty = DutyCycle::from_ratio(duty_ratios.front());
    t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "schedule.derive_schedule_set");
      (void)ldcf::sim::derive_schedule_set(topo, derive_config);
    }
    derive_times.push_back(seconds_since(t0));
  }

  report.set("topology.build_s", median(tracer.durations("topology.build")));
  report.set("topology.seal_s", median(tracer.durations("topology.seal")));
  report.set("topology.etx_tree_s", median(tree_times));
  report.set("schedule.derive_s", median(derive_times));
  report_profile(report, total_profile);
  report.set("sim.channel.attempts", static_cast<double>(attempts));
  double delivered = 0.0;
  double tried = 0.0;
  for (const ProtocolPoint& point : reference) {
    delivered += point.attempts - point.failures;
    tried += point.attempts;
  }
  report.set("sim.channel.success_ratio", tried > 0 ? delivered / tried : 0.0);
  for (const std::string& protocol : kProtocols) {
    report.set("protocols." + protocol + ".trial_s", protocol_seconds[protocol]);
    report.set("protocols." + protocol + ".intents_share",
               by_protocol[protocol].stage_share(ldcf::sim::Stage::kIntents));
  }
  report.set("analysis.trial_p50_s", median(trial_times));
  report.set("analysis.trial_max_s", percentile(trial_times, 100.0));
  // Both sides profiled and on seed set 0: the serial pass against the
  // first traced sweep.
  report.set("analysis.executor_efficiency",
             serial_seconds / (static_cast<double>(kWorkers) *
                               traced_times.front()));
  report.set("analysis.reduce_s", tracer.total("analysis.reduce_trials"));
  report.set("obs.report_s", median(report_times));
  report.set("obs.report_bytes", static_cast<double>(report_json.size()));
  report.set("bench.trace_overhead", median(traced_times) / median(untraced));
}

}  // namespace perfbench
