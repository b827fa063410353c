// Experiment orchestration: the sweeps behind the paper's evaluation
// figures, with optional multi-seed averaging.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ldcf/analysis/parallel.hpp"
#include "ldcf/obs/registry.hpp"
#include "ldcf/obs/timeseries.hpp"
#include "ldcf/obs/trace_analysis.hpp"
#include "ldcf/obs/watchdog.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::obs {
class HeartbeatWriter;  // obs/heartbeat.hpp.
class Timeline;         // obs/timeline.hpp.
}

namespace ldcf::analysis {

/// One protocol's aggregate numbers for a single operating point.
struct ProtocolPoint {
  std::string protocol;
  double duty_ratio = 0.0;
  double mean_delay = 0.0;          ///< slots, averaged over packets & seeds.
  double delay_stddev = 0.0;        ///< run-to-run spread of the mean delay.
  double mean_queueing_delay = 0.0;
  double mean_transmission_delay = 0.0;
  double failures = 0.0;            ///< transmission failures per run.
  double attempts = 0.0;
  double duplicates = 0.0;
  double energy_total = 0.0;
  double lifetime_slots = 0.0;      ///< estimated from the hottest node.
  bool all_covered = true;
  bool truncated = false;           ///< any repetition hit max_slots.
  std::uint32_t truncated_trials = 0;  ///< how many repetitions hit it.
  /// Repetitions whose trace analysis reported at least one theory
  /// violation (see obs/trace_analysis.hpp); counted only when
  /// ExperimentConfig::trial.check_conformance is on.
  std::uint32_t violating_trials = 0;
  /// Telemetry merged across the point's trials in repetition order
  /// (bit-identical for any thread count). Empty unless the experiment
  /// collected stats (ExperimentConfig::trial.collect_stats / report_path).
  obs::MetricsRegistry metrics;
  /// Stage timings summed across trials; all-zero unless base.profiling.
  sim::StageProfile profile;
  /// Windowed telemetry merged across trials (order-independent counter
  /// addition; widths aligned by coarsening). Empty unless
  /// ExperimentConfig::trial.collect_series.
  obs::TimeSeries timeseries;
  /// Per-node/per-link hot-spot map merged across trials. Empty unless
  /// ExperimentConfig::trial.collect_series.
  obs::NetMap netmap;
};

/// Which observers run_observed attaches; `TrialOptions{}` attaches none.
struct TrialOptions {
  /// Non-empty: attach a TraceObserver writing JSONL here.
  std::string trace_path;
  /// Attach a StatsObserver (obs/stats_observer.hpp).
  bool collect_stats = false;
  /// Record the run in memory and check it against the paper's bounds
  /// (Lemma 1/2, Corollary 1, Theorem 2 — see obs/trace_analysis.hpp).
  bool check_conformance = false;
  /// Non-null: attach a HeartbeatObserver streaming liveness records for
  /// this run (identified by trial_id/label) to the shared writer.
  obs::HeartbeatWriter* heartbeat = nullptr;
  double heartbeat_seconds = 5.0;  ///< minimum wall time between samples.
  std::uint64_t trial_id = 0;
  std::string label;  ///< heartbeat label; empty = the protocol's name.
  /// Set: attach a WatchdogObserver; a tripped invariant throws
  /// WatchdogError out of the run.
  std::optional<obs::WatchdogConfig> watchdog;
  /// Attach a TimeSeriesObserver (energy model overridden with the run's,
  /// so burn rates match its EnergyReport). With a watchdog too, the series
  /// registers first and feeds it its anomaly findings as causes, so a
  /// tripped health report explains what led up to the failure.
  bool collect_series = false;
  obs::TimeSeriesOptions series{};
};

struct ExperimentConfig {
  sim::SimConfig base{};         ///< duty is overridden per sweep point.
  std::uint32_t repetitions = 1; ///< seeds base.seed, base.seed+1, ...
  /// Worker threads for fanning out independent trials: 0 = one per
  /// hardware thread, 1 = exact serial fallback (no thread spawned).
  /// Results are bit-identical for every value (see parallel.hpp).
  std::uint32_t threads = 0;
  /// The observers every trial starts from. Per trial, the trace path is
  /// suffixed (trial_trace_path), a report implies stats, and the shared
  /// heartbeat writer, trial id and label are filled in.
  TrialOptions trial{};
  /// When non-empty, run_point / run_duty_sweep write a provenance-stamped
  /// JSON sweep report here (see analysis/report.hpp).
  std::string report_path;
  /// Completion callback forwarded to the parallel executor; see
  /// ProgressFn in parallel.hpp for the threading contract.
  ProgressFn progress;
  /// When non-empty, stream `ldcf.heartbeat.v1` JSONL liveness records
  /// (one shared append-mode writer across all trial workers, sampled every
  /// trial.heartbeat_seconds) to this file; see obs/heartbeat.hpp.
  std::string heartbeat_path;
  /// Called on each trial's resolved SimConfig (duty and seed already set)
  /// before the trial runs. A caching caller (the sweep service) uses this
  /// to attach memoized immutable artifacts — SimConfig::shared_schedules /
  /// shared_tree — per trial. Must not change anything that affects
  /// results; injected artifacts are validated by the engine.
  std::function<void(sim::SimConfig&)> trial_artifacts;
};

/// Raw aggregates of one seeded simulation trial, in reduction order.
/// Exposed so the reduction arithmetic is testable without running sims.
struct TrialStats {
  double mean_delay = 0.0;
  double mean_queueing_delay = 0.0;
  double mean_transmission_delay = 0.0;
  double failures = 0.0;
  double attempts = 0.0;
  double duplicates = 0.0;
  double energy_total = 0.0;
  double lifetime_slots = 0.0;
  bool all_covered = true;
  bool truncated = false;
  bool conformance_checked = false;  ///< trace analysis ran for this trial.
  /// Failed applicable conformance checks (0 when unchecked or clean).
  std::uint32_t conformance_violations = 0;
  obs::MetricsRegistry metrics;  ///< populated when collect_stats is on.
  sim::StageProfile profile;     ///< populated when config.profiling is on.
  obs::TimeSeries timeseries;    ///< populated when collect_series is on.
  obs::NetMap netmap;            ///< populated when collect_series is on.
};

/// One run's result plus what its selected observers collected.
struct ObservedRun {
  sim::SimResult result;
  obs::MetricsRegistry metrics;  ///< collect_stats.
  obs::TimeSeries timeseries;    ///< collect_series.
  obs::NetMap netmap;            ///< collect_series.
  std::optional<obs::TraceAnalysis> analysis;  ///< check_conformance.
};

/// The one place per-run observers are wired: every sweep trial and
/// flood_sim's single run go through here.
[[nodiscard]] ObservedRun run_observed(const topology::Topology& topo,
                                       sim::FloodingProtocol& protocol,
                                       const sim::SimConfig& config,
                                       const TrialOptions& options);

/// One simulation run of `protocol` under exactly `config` (duty and seed
/// already set): make_protocol + run_observed, reduced to TrialStats.
/// Self-contained: safe to run concurrently with other trials — a shared
/// config.timeline is fine (per-thread lanes), and the trial itself records
/// a "trial" span on it.
[[nodiscard]] TrialStats run_trial(const topology::Topology& topo,
                                   const std::string& protocol,
                                   const sim::SimConfig& config,
                                   const TrialOptions& options);

/// Index-ordered reduction of per-repetition trials into a ProtocolPoint.
/// delay_stddev is the population stddev of the per-trial mean delays,
/// computed two-pass (sum of squared deviations from the mean) so that
/// near-equal large delays do not cancel catastrophically. Registry and
/// histogram merging is exact: bin counts are independent of reduction
/// order (see histogram.hpp).
[[nodiscard]] ProtocolPoint reduce_trials(const std::string& protocol,
                                          DutyCycle duty,
                                          std::span<const TrialStats> trials);

/// The per-trial event-trace file for `base` (ExperimentConfig::trial's
/// trace_path): empty stays empty, a single-trial run (`total_trials <= 1`)
/// gets exactly `base`, and any larger run splices
/// "-<protocol>-T<period>-r<rep>" in before the extension (after the last
/// '/'-separated component's last dot; appended when there is no
/// extension).
[[nodiscard]] std::string trial_trace_path(const std::string& base,
                                           const std::string& protocol,
                                           DutyCycle duty, std::uint32_t rep,
                                           std::size_t total_trials);

/// Run one protocol at one duty cycle, averaged over repetitions.
/// Repetitions fan out over config.threads workers; the result is
/// bit-identical for every thread count.
[[nodiscard]] ProtocolPoint run_point(const topology::Topology& topo,
                                      const std::string& protocol,
                                      DutyCycle duty,
                                      const ExperimentConfig& config);

/// The Fig. 10/11 sweep: every protocol at every duty ratio. The whole
/// (protocol x duty x repetition) trial grid fans out over config.threads
/// workers; output order and every field are bit-identical to threads=1.
[[nodiscard]] std::vector<ProtocolPoint> run_duty_sweep(
    const topology::Topology& topo, const std::vector<std::string>& protocols,
    const std::vector<double>& duty_ratios, const ExperimentConfig& config);

/// One network size's numbers in an N-scaling sweep (paper Fig. 6: FDL
/// grows like log(1 + N) at fixed density).
struct ScalePoint {
  std::uint32_t num_sensors = 0;
  std::size_t num_links = 0;           ///< directed links in the topology.
  double mean_degree = 0.0;
  double reachable_fraction = 0.0;     ///< sensors the source can reach.
  std::uint64_t eccentricity = 0;      ///< max hop distance from the source.
  double topology_build_seconds = 0.0; ///< wall time to generate the graph.
  ProtocolPoint point;                 ///< simulated numbers at this size.
};

/// Run `protocol` at `duty_ratio` across network sizes. Each size floods
/// topology::make_network("clustered", n, config.base.seed, kPairKeyed):
/// constant GreenOrbs density, order-independent links, and a source that
/// reaches >= 99 % of the sensors. Sizes run in sequence (each one's
/// repetitions fan out over config.threads); config.report_path and
/// trial.trace_path are ignored per size — one sweep produces one result
/// set the caller renders. The channel always runs in
/// ChannelRngMode::kSlotKeyed here (config.base.channel_rng is overridden),
/// matching the pair-keyed link RNG: large-N sweeps care about
/// order-independence, and no golden pins sequential realizations at these
/// sizes.
[[nodiscard]] std::vector<ScalePoint> run_scale_sweep(
    const std::vector<std::uint32_t>& sensor_counts,
    const std::string& protocol, double duty_ratio,
    const ExperimentConfig& config);

/// Per-packet series for Fig. 9: one run, delays indexed by packet.
struct PacketSeries {
  std::string protocol;
  std::vector<std::uint64_t> total_delay;
  std::vector<std::uint64_t> queueing_delay;
  std::vector<std::uint64_t> transmission_delay;
};
[[nodiscard]] PacketSeries run_packet_series(const topology::Topology& topo,
                                             const std::string& protocol,
                                             const sim::SimConfig& config);

/// Reductions of a heterogeneous trace to the §IV-B homogeneous k-class
/// model (the paper handles heterogeneity "by the simulation"; these are
/// the standard ways to pick the k to compare against).
enum class KEstimate {
  kInverseMeanPrr,  ///< 1 / mean(PRR): optimistic, junk links dilute it.
  kHarmonicMean,    ///< mean(1/PRR): pessimistic, junk links dominate it.
  kTreeWeighted,    ///< mean(1/PRR) over ETX-tree edges: the links that
                    ///< actually carry flooding traffic.
};

/// Expected transmissions per delivery for the trace under the chosen
/// reduction. Throws InvalidArgument on a linkless topology.
[[nodiscard]] double effective_k(const topology::Topology& topo,
                                 KEstimate mode);

}  // namespace ldcf::analysis
