#include "ldcf/analysis/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "ldcf/analysis/report.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/obs/heartbeat.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/tree.hpp"

namespace ldcf::analysis {

ObservedRun run_observed(const topology::Topology& topo,
                         sim::FloodingProtocol& protocol,
                         const sim::SimConfig& config,
                         const TrialOptions& options) {
  // Optional observers share the engine's single observer slot through a
  // MultiObserver; the common no-observer path skips the fan-out entirely.
  sim::MultiObserver fan_out;
  std::optional<sim::TraceObserver> trace;
  if (!options.trace_path.empty()) {
    fan_out.add(&trace.emplace(options.trace_path));
  }
  std::optional<obs::StatsObserver> stats_observer;
  if (options.collect_stats) {
    fan_out.add(&stats_observer.emplace(topo.num_nodes(), config.num_packets));
  }
  std::optional<sim::TraceObserver> recorder;
  if (options.check_conformance) fan_out.add(&recorder.emplace());
  std::optional<obs::HeartbeatObserver> heartbeat;
  if (options.heartbeat != nullptr) {
    fan_out.add(&heartbeat.emplace(
        *options.heartbeat, options.trial_id,
        options.label.empty() ? std::string(protocol.name()) : options.label,
        config.num_packets, options.heartbeat_seconds));
  }
  // The series observer precedes the watchdog so that when an invariant
  // trips mid-run, the windowed counters already include the current
  // slot's events and current_causes() describes the run up to the trip.
  std::optional<obs::TimeSeriesObserver> series_observer;
  if (options.collect_series) {
    obs::TimeSeriesOptions series_options = options.series;
    series_options.energy = config.energy;
    fan_out.add(&series_observer.emplace(topo, series_options));
  }
  std::optional<obs::WatchdogObserver> watchdog;
  if (options.watchdog) {
    fan_out.add(&watchdog.emplace(*options.watchdog));
    if (series_observer) watchdog->set_cause_source(&*series_observer);
  }
  ObservedRun run;
  run.result = sim::run_simulation(topo, config, protocol,
                                   fan_out.size() > 0 ? &fan_out : nullptr);
  if (stats_observer) run.metrics = std::move(stats_observer->registry());
  if (series_observer) {
    run.timeseries = series_observer->take_series();
    run.netmap = series_observer->take_netmap();
  }
  if (recorder) {
    obs::TraceAnalysisOptions analysis_options;
    analysis_options.num_sensors = topo.num_sensors();
    analysis_options.duty_period = config.duty.period;
    analysis_options.source = config.source;
    run.analysis = obs::analyze_trace(recorder->events(), analysis_options);
  }
  return run;
}

TrialStats run_trial(const topology::Topology& topo,
                     const std::string& protocol,
                     const sim::SimConfig& config,
                     const TrialOptions& options) {
  obs::TimelineSpan trial_span(config.timeline, "trial", "executor", "trial",
                               options.trial_id);
  const auto proto = protocols::make_protocol(protocol);
  ObservedRun run = run_observed(topo, *proto, config, options);
  const sim::SimResult& res = run.result;
  TrialStats stats;
  stats.metrics = std::move(run.metrics);
  stats.timeseries = std::move(run.timeseries);
  stats.netmap = std::move(run.netmap);
  if (run.analysis) {
    stats.conformance_checked = true;
    stats.conformance_violations = run.analysis->conformance.violations();
  }
  stats.profile = res.profile;
  stats.mean_delay = res.metrics.mean_total_delay();
  stats.mean_queueing_delay = res.metrics.mean_queueing_delay();
  stats.mean_transmission_delay = res.metrics.mean_transmission_delay();
  stats.failures = static_cast<double>(res.metrics.channel.failures());
  stats.attempts = static_cast<double>(res.metrics.channel.attempts);
  stats.duplicates = static_cast<double>(res.metrics.channel.duplicates);
  stats.energy_total = res.energy.total;
  stats.lifetime_slots = sim::estimate_lifetime_slots(
      res.tally, config.energy, res.metrics.end_slot);
  stats.all_covered = res.metrics.all_covered;
  stats.truncated = res.metrics.truncated;
  return stats;
}

ProtocolPoint reduce_trials(const std::string& protocol, DutyCycle duty,
                            std::span<const TrialStats> trials) {
  LDCF_REQUIRE(!trials.empty(), "need at least one trial");
  ProtocolPoint point;
  point.protocol = protocol;
  point.duty_ratio = duty.ratio();
  const auto reps = static_cast<double>(trials.size());
  for (const TrialStats& t : trials) {
    point.mean_delay += t.mean_delay / reps;
    point.mean_queueing_delay += t.mean_queueing_delay / reps;
    point.mean_transmission_delay += t.mean_transmission_delay / reps;
    point.failures += t.failures / reps;
    point.attempts += t.attempts / reps;
    point.duplicates += t.duplicates / reps;
    point.energy_total += t.energy_total / reps;
    point.lifetime_slots += t.lifetime_slots / reps;
    point.all_covered = point.all_covered && t.all_covered;
    point.truncated = point.truncated || t.truncated;
    if (t.truncated) ++point.truncated_trials;
    if (t.conformance_checked && t.conformance_violations > 0) {
      ++point.violating_trials;
    }
    point.metrics.merge(t.metrics);
    point.profile.merge(t.profile);
    point.timeseries.merge(t.timeseries);
    point.netmap.merge(t.netmap);
  }
  // Two-pass population stddev: squared deviations from the already-known
  // mean. The one-pass sqrt(E[x^2] - mean^2) form cancels catastrophically
  // when the spread is tiny relative to the mean (e.g. delays ~1e8 apart
  // by fractions of a slot).
  double sum_sq_dev = 0.0;
  for (const TrialStats& t : trials) {
    const double dev = t.mean_delay - point.mean_delay;
    sum_sq_dev += dev * dev;
  }
  point.delay_stddev = std::sqrt(sum_sq_dev / reps);
  return point;
}

std::string trial_trace_path(const std::string& base,
                             const std::string& protocol, DutyCycle duty,
                             std::uint32_t rep, std::size_t total_trials) {
  if (base.empty()) return {};
  if (total_trials <= 1) return base;  // single trial: the path, verbatim.
  std::string suffix = "-" + protocol + "-T" + std::to_string(duty.period) +
                       "-r" + std::to_string(rep);
  const std::size_t dot = base.find_last_of('.');
  const std::size_t slash = base.find_last_of('/');
  const bool has_ext =
      dot != std::string::npos &&
      (slash == std::string::npos || dot > slash);
  if (!has_ext) return base + suffix;
  return base.substr(0, dot) + suffix + base.substr(dot);
}

namespace {

/// Per-repetition SimConfig for one sweep cell: the duty override and the
/// self-contained per-trial seed (base.seed + rep).
sim::SimConfig trial_config(const ExperimentConfig& config, DutyCycle duty,
                            std::uint32_t rep) {
  sim::SimConfig run_config = config.base;
  run_config.duty = duty;
  run_config.seed = config.base.seed + rep;
  // Artifact-cache hook: runs after duty/seed resolution so the caller can
  // key memoized schedules/trees on the final per-trial config.
  if (config.trial_artifacts) config.trial_artifacts(run_config);
  return run_config;
}

/// TrialOptions for one grid trial: the experiment's template plus the
/// trial's own trace file, the report's implied stats, and its identity
/// (id + "proto-T<period>-r<rep>" heartbeat label).
TrialOptions trial_options(const ExperimentConfig& config,
                           obs::HeartbeatWriter* heartbeat,
                           const std::string& protocol, DutyCycle duty,
                           std::uint32_t rep, std::uint64_t trial_id,
                           std::size_t total_trials) {
  TrialOptions options = config.trial;
  options.trace_path = trial_trace_path(config.trial.trace_path, protocol,
                                        duty, rep, total_trials);
  options.collect_stats |= !config.report_path.empty();
  options.heartbeat = heartbeat;
  options.trial_id = trial_id;
  options.label = protocol + "-T" + std::to_string(duty.period) + "-r" +
                  std::to_string(rep);
  return options;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(obs::steady_now_ns() - start_ns) * 1e-9;
}

/// The one-line truncation warning: silently-truncated sweeps otherwise
/// only show up as a struct flag nobody prints.
void warn_truncated(const std::vector<ProtocolPoint>& points,
                    std::size_t total_trials) {
  std::uint64_t truncated = 0;
  for (const ProtocolPoint& point : points) {
    truncated += point.truncated_trials;
  }
  if (truncated == 0) return;
  std::cerr << "ldcf: warning: " << truncated << " of " << total_trials
            << " trials stopped at max_slots before reaching coverage "
               "(delay/energy aggregates are lower bounds for those "
               "trials)\n";
}

/// run_point and run_duty_sweep: the (protocol x duty x repetition) grid
/// as one task list, so a few cells still saturate all workers. Trial t is
/// cell t / repetitions, repetition t % repetitions; cells reduce in grid
/// order, so the output is bit-identical to the serial nested loop.
std::vector<ProtocolPoint> run_grid(const topology::Topology& topo,
                                    const std::vector<std::string>& protocols,
                                    const std::vector<DutyCycle>& duties,
                                    const ExperimentConfig& config,
                                    const char* tool) {
  LDCF_REQUIRE(config.repetitions >= 1, "need at least one repetition");
  const auto wall_start = obs::steady_now_ns();
  const std::size_t reps = config.repetitions;
  const std::size_t cells = protocols.size() * duties.size();
  std::vector<TrialStats> trials(cells * reps);
  std::optional<obs::HeartbeatWriter> heartbeat;  // shared by every worker.
  if (!config.heartbeat_path.empty()) heartbeat.emplace(config.heartbeat_path);
  parallel_for_indexed(
      trials.size(), config.threads,
      [&](std::size_t t) {
        const std::size_t cell = t / reps;
        const auto rep = static_cast<std::uint32_t>(t % reps);
        const std::string& protocol = protocols[cell / duties.size()];
        const DutyCycle duty = duties[cell % duties.size()];
        trials[t] = run_trial(
            topo, protocol, trial_config(config, duty, rep),
            trial_options(config, heartbeat ? &*heartbeat : nullptr,
                          protocol, duty, rep, t, trials.size()));
      },
      config.progress);

  std::vector<ProtocolPoint> points;
  points.reserve(cells);
  {
    obs::TimelineSpan span(config.base.timeline, "reduce", "executor",
                           "trials", trials.size());
    for (std::size_t cell = 0; cell < cells; ++cell) {
      points.push_back(reduce_trials(
          protocols[cell / duties.size()], duties[cell % duties.size()],
          std::span<const TrialStats>(trials).subspan(cell * reps, reps)));
    }
  }
  warn_truncated(points, trials.size());
  if (!config.report_path.empty()) {
    SweepReportContext report;
    report.tool = tool;
    report.topo = &topo;
    report.config = &config;
    report.points = &points;
    report.wall_seconds = seconds_since(wall_start);
    write_sweep_report_file(config.report_path, report);
  }
  return points;
}

}  // namespace

ProtocolPoint run_point(const topology::Topology& topo,
                        const std::string& protocol, DutyCycle duty,
                        const ExperimentConfig& config) {
  return run_grid(topo, {protocol}, {duty}, config, "run_point").front();
}

std::vector<ProtocolPoint> run_duty_sweep(
    const topology::Topology& topo, const std::vector<std::string>& protocols,
    const std::vector<double>& duty_ratios, const ExperimentConfig& config) {
  std::vector<DutyCycle> duties;
  for (const double ratio : duty_ratios) {
    duties.push_back(DutyCycle::from_ratio(ratio));
  }
  return run_grid(topo, protocols, duties, config, "run_duty_sweep");
}

double effective_k(const topology::Topology& topo, KEstimate mode) {
  LDCF_REQUIRE(topo.num_links() > 0, "topology has no links");
  switch (mode) {
    case KEstimate::kInverseMeanPrr:
      return 1.0 / topo.mean_prr();
    case KEstimate::kHarmonicMean: {
      double sum = 0.0;
      std::size_t count = 0;
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        for (const topology::Link& l : topo.neighbors(n)) {
          sum += 1.0 / l.prr;
          ++count;
        }
      }
      return sum / static_cast<double>(count);
    }
    case KEstimate::kTreeWeighted: {
      const topology::Tree tree = topology::build_etx_tree(topo, 0);
      double sum = 0.0;
      std::size_t count = 0;
      for (NodeId v = 0; v < topo.num_nodes(); ++v) {
        if (tree.parent[v] == kNoNode) continue;
        sum += 1.0 / topo.prr(tree.parent[v], v).value();
        ++count;
      }
      LDCF_REQUIRE(count > 0, "source reaches nothing");
      return sum / static_cast<double>(count);
    }
  }
  throw InvalidArgument("unknown k estimate mode");
}

std::vector<ScalePoint> run_scale_sweep(
    const std::vector<std::uint32_t>& sensor_counts,
    const std::string& protocol, double duty_ratio,
    const ExperimentConfig& config) {
  LDCF_REQUIRE(!sensor_counts.empty(), "need at least one network size");
  std::vector<ScalePoint> points;
  points.reserve(sensor_counts.size());
  for (const std::uint32_t n : sensor_counts) {
    const auto build_start = obs::steady_now_ns();
    const topology::Topology topo = topology::make_network(
        "clustered", n, config.base.seed, topology::LinkRngMode::kPairKeyed);
    ScalePoint sp;
    sp.topology_build_seconds = seconds_since(build_start);
    sp.num_sensors = n;
    sp.num_links = topo.num_links();
    sp.mean_degree = topo.mean_degree();
    sp.reachable_fraction = topo.reachable_fraction();
    sp.eccentricity = topo.eccentricity_from_source();
    ExperimentConfig per_size = config;
    per_size.report_path.clear();
    per_size.trial.trace_path.clear();
    // Scale sweeps always run the channel keyed: like the pair-keyed link
    // RNG above, counter-based draws make large-N realizations independent
    // of evaluation order. Nothing pins sequential realizations at these
    // sizes.
    per_size.base.channel_rng = sim::ChannelRngMode::kSlotKeyed;
    sp.point = run_point(topo, protocol, DutyCycle::from_ratio(duty_ratio),
                         per_size);
    points.push_back(std::move(sp));
  }
  return points;
}

PacketSeries run_packet_series(const topology::Topology& topo,
                               const std::string& protocol,
                               const sim::SimConfig& config) {
  PacketSeries series;
  series.protocol = protocol;
  const auto proto = protocols::make_protocol(protocol);
  const ObservedRun run = run_observed(topo, *proto, config, TrialOptions{});
  series.total_delay.reserve(run.result.metrics.packets.size());
  for (const auto& rec : run.result.metrics.packets) {
    series.total_delay.push_back(rec.total_delay());
    series.queueing_delay.push_back(rec.queueing_delay());
    series.transmission_delay.push_back(rec.transmission_delay());
  }
  return series;
}

}  // namespace ldcf::analysis
