#include "ldcf/analysis/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <optional>

#include "ldcf/analysis/report.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/obs/heartbeat.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/obs/trace_analysis.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/tree.hpp"

namespace ldcf::analysis {

TrialStats run_trial(const topology::Topology& topo,
                     const std::string& protocol,
                     const sim::SimConfig& config,
                     const TrialOptions& options) {
  obs::TimelineSpan trial_span(config.timeline, "trial", "executor", "trial",
                               options.trial_id);
  const auto proto = protocols::make_protocol(protocol);
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
    fan_out.add(&heartbeat.emplace(*options.heartbeat, options.trial_id,
                                   options.label.empty() ? protocol
                                                         : options.label,
                                   config.num_packets,
                                   options.heartbeat_seconds));
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
  if (options.watchdog != nullptr) {
    fan_out.add(&watchdog.emplace(*options.watchdog));
    if (series_observer) watchdog->set_cause_source(&*series_observer);
  }
  const sim::SimResult res = sim::run_simulation(
      topo, config, *proto, fan_out.size() > 0 ? &fan_out : nullptr);
  TrialStats stats;
  if (stats_observer) stats.metrics = std::move(stats_observer->registry());
  if (series_observer) {
    stats.timeseries = series_observer->take_series();
    stats.netmap = series_observer->take_netmap();
  }
  if (recorder) {
    obs::TraceAnalysisOptions analysis_options;
    analysis_options.num_sensors = topo.num_sensors();
    analysis_options.duty_period = config.duty.period;
    analysis_options.source = config.source;
    const obs::TraceAnalysis analysis =
        obs::analyze_trace(recorder->events(), analysis_options);
    stats.conformance_checked = true;
    stats.conformance_violations = analysis.conformance.violations();
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
                            const std::vector<TrialStats>& trials) {
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

/// Stats are collected when explicitly requested or implied by a report.
bool wants_stats(const ExperimentConfig& config) {
  return config.collect_stats || !config.report_path.empty();
}

/// The shared per-sweep heartbeat writer, or nothing. unique_ptr because
/// HeartbeatWriter owns a mutex and cannot move.
std::unique_ptr<obs::HeartbeatWriter> make_heartbeat(
    const ExperimentConfig& config) {
  if (config.heartbeat_path.empty()) return nullptr;
  return std::make_unique<obs::HeartbeatWriter>(config.heartbeat_path);
}

/// TrialOptions for one grid trial: observer switches from the experiment
/// config plus the trial's identity (id + "proto-T<period>-r<rep>" label).
TrialOptions trial_options(const ExperimentConfig& config,
                           obs::HeartbeatWriter* heartbeat,
                           const std::string& protocol, DutyCycle duty,
                           std::uint32_t rep, std::uint64_t trial_id,
                           std::size_t total_trials) {
  TrialOptions options;
  options.trace_path = trial_trace_path(config.trace_path, protocol, duty,
                                        rep, total_trials);
  options.collect_stats = wants_stats(config);
  options.check_conformance = config.check_conformance;
  options.heartbeat = heartbeat;
  options.heartbeat_seconds = config.heartbeat_seconds;
  options.trial_id = trial_id;
  options.label = protocol + "-T" + std::to_string(duty.period) + "-r" +
                  std::to_string(rep);
  options.watchdog = config.watchdog ? &*config.watchdog : nullptr;
  options.collect_series = config.collect_series;
  options.series = config.series;
  return options;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
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

}  // namespace

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

ProtocolPoint run_point(const topology::Topology& topo,
                        const std::string& protocol, DutyCycle duty,
                        const ExperimentConfig& config) {
  LDCF_REQUIRE(config.repetitions >= 1, "need at least one repetition");
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<TrialStats> trials(config.repetitions);
  const std::unique_ptr<obs::HeartbeatWriter> heartbeat = make_heartbeat(config);
  parallel_for_indexed(
      trials.size(), config.threads,
      [&](std::size_t rep) {
        const auto r = static_cast<std::uint32_t>(rep);
        trials[rep] = run_trial(
            topo, protocol, trial_config(config, duty, r),
            trial_options(config, heartbeat.get(), protocol,
                          duty, r, rep, trials.size()));
      },
      config.progress);
  ProtocolPoint point = [&] {
    obs::TimelineSpan span(config.base.timeline, "reduce", "executor",
                           "trials", trials.size());
    return reduce_trials(protocol, duty, trials);
  }();
  warn_truncated({point}, trials.size());
  if (!config.report_path.empty()) {
    SweepReportContext report;
    report.tool = "run_point";
    report.topo = &topo;
    report.config = &config;
    const std::vector<ProtocolPoint> points = {point};
    report.points = &points;
    report.wall_seconds = seconds_since(wall_start);
    write_sweep_report_file(config.report_path, report);
  }
  return point;
}

std::vector<ProtocolPoint> run_duty_sweep(
    const topology::Topology& topo, const std::vector<std::string>& protocols,
    const std::vector<double>& duty_ratios, const ExperimentConfig& config) {
  LDCF_REQUIRE(config.repetitions >= 1, "need at least one repetition");
  const auto wall_start = std::chrono::steady_clock::now();
  // Flatten the whole (protocol x duty x repetition) grid into one task
  // list so a few protocols at a few duty cycles still saturate all
  // workers. Trial t belongs to grid cell t / repetitions, repetition
  // t % repetitions; the reduction below walks cells in grid order, so
  // the output is bit-identical to the serial nested loop.
  const std::size_t reps = config.repetitions;
  const std::size_t cells = protocols.size() * duty_ratios.size();
  std::vector<TrialStats> trials(cells * reps);
  const std::unique_ptr<obs::HeartbeatWriter> heartbeat = make_heartbeat(config);
  parallel_for_indexed(
      trials.size(), config.threads,
      [&](std::size_t t) {
        const std::size_t cell = t / reps;
        const auto rep = static_cast<std::uint32_t>(t % reps);
        const std::string& protocol = protocols[cell / duty_ratios.size()];
        const DutyCycle duty =
            DutyCycle::from_ratio(duty_ratios[cell % duty_ratios.size()]);
        trials[t] = run_trial(
            topo, protocol, trial_config(config, duty, rep),
            trial_options(config, heartbeat.get(), protocol,
                          duty, rep, t, trials.size()));
      },
      config.progress);

  std::vector<ProtocolPoint> points;
  points.reserve(cells);
  {
    obs::TimelineSpan span(config.base.timeline, "reduce", "executor",
                           "trials", trials.size());
    for (std::size_t cell = 0; cell < cells; ++cell) {
      const std::vector<TrialStats> cell_trials(
          trials.begin() + static_cast<std::ptrdiff_t>(cell * reps),
          trials.begin() + static_cast<std::ptrdiff_t>((cell + 1) * reps));
      points.push_back(reduce_trials(
          protocols[cell / duty_ratios.size()],
          DutyCycle::from_ratio(duty_ratios[cell % duty_ratios.size()]),
          cell_trials));
    }
  }
  warn_truncated(points, trials.size());
  if (!config.report_path.empty()) {
    SweepReportContext report;
    report.tool = "run_duty_sweep";
    report.topo = &topo;
    report.config = &config;
    report.points = &points;
    report.wall_seconds = seconds_since(wall_start);
    write_sweep_report_file(config.report_path, report);
  }
  return points;
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
    const ExperimentConfig& config, const TopologyFactory& factory) {
  LDCF_REQUIRE(!sensor_counts.empty(), "need at least one network size");
  const TopologyFactory make =
      factory ? factory
              : [](std::uint32_t n, std::uint64_t seed) {
                  topology::ClusterConfig cc =
                      topology::scaled_cluster_config(n, seed);
                  cc.base.link_rng = topology::LinkRngMode::kPairKeyed;
                  cc.base.require_connectivity = false;
                  return topology::make_clustered(cc);
                };
  std::vector<ScalePoint> points;
  points.reserve(sensor_counts.size());
  for (const std::uint32_t n : sensor_counts) {
    const auto build_start = std::chrono::steady_clock::now();
    const topology::Topology topo = make(n, config.base.seed);
    ScalePoint sp;
    sp.topology_build_seconds = seconds_since(build_start);
    sp.num_sensors = n;
    sp.num_links = topo.num_links();
    sp.mean_degree = topo.mean_degree();
    sp.reachable_fraction =
        topo.num_sensors() == 0
            ? 1.0
            : static_cast<double>(topo.reachable_count(0) - 1) /
                  static_cast<double>(topo.num_sensors());
    sp.eccentricity = topo.eccentricity_from_source();
    ExperimentConfig per_size = config;
    per_size.report_path.clear();
    per_size.trace_path.clear();
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
  const sim::SimResult res = sim::run_simulation(topo, config, *proto);
  series.total_delay.reserve(res.metrics.packets.size());
  for (const auto& rec : res.metrics.packets) {
    series.total_delay.push_back(rec.total_delay());
    series.queueing_delay.push_back(rec.queueing_delay());
    series.transmission_delay.push_back(rec.transmission_delay());
  }
  return series;
}

}  // namespace ldcf::analysis
