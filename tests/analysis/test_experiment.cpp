#include "ldcf/analysis/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/heartbeat.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/topology/generators.hpp"

namespace ldcf::analysis {
namespace {

topology::Topology small_trace() {
  topology::ClusterConfig config;
  config.base.num_sensors = 40;
  config.base.area_side_m = 200.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 9;
  config.num_clusters = 4;
  return topology::make_clustered(config);
}

ExperimentConfig quick() {
  ExperimentConfig config;
  config.base.num_packets = 5;
  config.base.seed = 3;
  config.base.max_slots = 2'000'000;
  return config;
}

TEST(Experiment, RunPointProducesSaneNumbers) {
  const auto topo = small_trace();
  const auto point = run_point(topo, "opt", DutyCycle{10}, quick());
  EXPECT_EQ(point.protocol, "opt");
  EXPECT_DOUBLE_EQ(point.duty_ratio, 0.1);
  EXPECT_TRUE(point.all_covered);
  EXPECT_GT(point.mean_delay, 0.0);
  EXPECT_GT(point.attempts, 0.0);
  EXPECT_GT(point.energy_total, 0.0);
  EXPECT_GT(point.lifetime_slots, 0.0);
  EXPECT_NEAR(point.mean_delay,
              point.mean_queueing_delay + point.mean_transmission_delay,
              1e-6);
}

TEST(Experiment, RepetitionsAverage) {
  const auto topo = small_trace();
  ExperimentConfig config = quick();
  config.repetitions = 3;
  const auto averaged = run_point(topo, "opt", DutyCycle{10}, config);
  EXPECT_TRUE(averaged.all_covered);
  EXPECT_GT(averaged.mean_delay, 0.0);
  config.repetitions = 0;
  EXPECT_THROW((void)run_point(topo, "opt", DutyCycle{10}, config),
               InvalidArgument);
}

TEST(Experiment, DutySweepCoversGrid) {
  const auto topo = small_trace();
  const auto points =
      run_duty_sweep(topo, {"opt", "dbao"}, {0.2, 0.1}, quick());
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points[0].protocol, "opt");
  EXPECT_DOUBLE_EQ(points[0].duty_ratio, 0.2);
  EXPECT_EQ(points[3].protocol, "dbao");
  EXPECT_DOUBLE_EQ(points[3].duty_ratio, 0.1);
  // Lower duty -> more delay for the same protocol.
  EXPECT_LT(points[0].mean_delay, points[1].mean_delay);
}

// The one-pass sqrt(E[x^2] - mean^2) formula this replaced loses all
// significant digits when the spread is tiny relative to the mean: with
// per-trial means near 1e9 the squares sit at 1e18 where a double's ulp is
// ~128, so the subtraction returns quantization noise, not 2/3.
TEST(ReduceTrials, StddevSurvivesNearEqualLargeDelays) {
  std::vector<TrialStats> trials(3);
  trials[0].mean_delay = 1e9;
  trials[1].mean_delay = 1e9 + 1.0;
  trials[2].mean_delay = 1e9 + 2.0;
  const ProtocolPoint point = reduce_trials("opt", DutyCycle{10}, trials);
  EXPECT_NEAR(point.mean_delay, 1e9 + 1.0, 1e-3);
  EXPECT_NEAR(point.delay_stddev, std::sqrt(2.0 / 3.0), 1e-6);
}

TEST(ReduceTrials, StddevMatchesPopulationFormula) {
  std::vector<TrialStats> trials(3);
  trials[0].mean_delay = 10.0;
  trials[1].mean_delay = 20.0;
  trials[2].mean_delay = 30.0;
  const ProtocolPoint point = reduce_trials("opt", DutyCycle{10}, trials);
  EXPECT_DOUBLE_EQ(point.mean_delay, 20.0);
  EXPECT_NEAR(point.delay_stddev, std::sqrt(200.0 / 3.0), 1e-12);

  const std::vector<TrialStats> identical(4, trials[0]);
  EXPECT_EQ(reduce_trials("opt", DutyCycle{10}, identical).delay_stddev, 0.0);

  EXPECT_THROW((void)reduce_trials("opt", DutyCycle{10}, {}),
               InvalidArgument);
}

// The parallel executor's whole contract: any thread count produces
// field-for-field bit-identical sweep results, for every registered
// protocol, on more than one topology.
TEST(Experiment, SweepIsBitIdenticalAcrossThreadCounts) {
  const std::vector<topology::Topology> topos = {
      small_trace(), topology::make_complete(12, 0.9)};
  const std::vector<std::string> protocols = protocols::protocol_names();
  const std::vector<double> duties{0.2, 0.1};
  for (const auto& topo : topos) {
    ExperimentConfig serial = quick();
    serial.base.num_packets = 3;
    serial.repetitions = 3;
    serial.threads = 1;
    ExperimentConfig parallel = serial;
    parallel.threads = 4;
    const auto a = run_duty_sweep(topo, protocols, duties, serial);
    const auto b = run_duty_sweep(topo, protocols, duties, parallel);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), protocols.size() * duties.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(a[i].protocol + " @ duty " +
                   std::to_string(a[i].duty_ratio));
      EXPECT_EQ(a[i].protocol, b[i].protocol);
      EXPECT_EQ(a[i].duty_ratio, b[i].duty_ratio);
      EXPECT_EQ(a[i].mean_delay, b[i].mean_delay);
      EXPECT_EQ(a[i].delay_stddev, b[i].delay_stddev);
      EXPECT_EQ(a[i].mean_queueing_delay, b[i].mean_queueing_delay);
      EXPECT_EQ(a[i].mean_transmission_delay, b[i].mean_transmission_delay);
      EXPECT_EQ(a[i].failures, b[i].failures);
      EXPECT_EQ(a[i].attempts, b[i].attempts);
      EXPECT_EQ(a[i].duplicates, b[i].duplicates);
      EXPECT_EQ(a[i].energy_total, b[i].energy_total);
      EXPECT_EQ(a[i].lifetime_slots, b[i].lifetime_slots);
      EXPECT_EQ(a[i].all_covered, b[i].all_covered);
    }
    // A parallel run_point reproduces its sweep cell bit-for-bit too.
    const auto point = run_point(topo, protocols[0],
                                 DutyCycle::from_ratio(duties[0]), parallel);
    EXPECT_EQ(point.mean_delay, a[0].mean_delay);
    EXPECT_EQ(point.delay_stddev, a[0].delay_stddev);
    EXPECT_EQ(point.energy_total, a[0].energy_total);
  }
}

// The trace-path suffix rule (satellite of the telemetry PR): a single
// trial writes exactly the requested path; multi-trial runs splice the
// per-trial suffix in before the extension.
TEST(TrialTracePath, SingleTrialWritesExactlyTheGivenPath) {
  EXPECT_EQ(trial_trace_path("out/run.jsonl", "dbao", DutyCycle{20}, 0, 1),
            "out/run.jsonl");
  EXPECT_EQ(trial_trace_path("run.jsonl", "opt", DutyCycle{10}, 5, 1),
            "run.jsonl");
  EXPECT_EQ(trial_trace_path("", "opt", DutyCycle{10}, 0, 1), "");
}

TEST(TrialTracePath, MultiTrialRunsGetPerTrialSuffixBeforeExtension) {
  EXPECT_EQ(trial_trace_path("run.jsonl", "dbao", DutyCycle{20}, 2, 6),
            "run-dbao-T20-r2.jsonl");
  EXPECT_EQ(trial_trace_path("a/b/run.jsonl", "opt", DutyCycle{10}, 0, 2),
            "a/b/run-opt-T10-r0.jsonl");
  // No extension: the suffix simply appends.
  EXPECT_EQ(trial_trace_path("trace", "of", DutyCycle{5}, 1, 3),
            "trace-of-T5-r1");
  // A dot in a directory component is not an extension.
  EXPECT_EQ(trial_trace_path("v1.2/trace", "of", DutyCycle{5}, 1, 3),
            "v1.2/trace-of-T5-r1");
  EXPECT_EQ(trial_trace_path("", "of", DutyCycle{5}, 1, 3), "");
}

// reduce_trials merges registries in repetition order, but the histogram
// algebra makes the resulting bins independent of that order.
TEST(ReduceTrials, HistogramMergeIsIndependentOfReductionOrder) {
  std::vector<TrialStats> trials(3);
  trials[0].metrics.histogram("delay.total").record(1.0);
  trials[0].metrics.histogram("delay.total").record(2.0);
  trials[1].metrics.histogram("delay.total").record(200.0);  // coarsens.
  trials[2].metrics.histogram("delay.total").record(3.0, 4);
  trials[0].metrics.counter("tx.attempts").inc(10);
  trials[1].metrics.counter("tx.attempts").inc(20);
  trials[2].metrics.counter("tx.attempts").inc(30);
  trials[1].truncated = true;

  const ProtocolPoint forward = reduce_trials("opt", DutyCycle{10}, trials);
  std::vector<TrialStats> reversed = {trials[2], trials[1], trials[0]};
  const ProtocolPoint backward =
      reduce_trials("opt", DutyCycle{10}, reversed);

  EXPECT_EQ(forward.truncated_trials, 1u);
  EXPECT_TRUE(forward.truncated);
  EXPECT_EQ(backward.truncated_trials, 1u);
  EXPECT_EQ(forward.metrics.counters().at("tx.attempts").value(), 60u);
  EXPECT_EQ(backward.metrics.counters().at("tx.attempts").value(), 60u);

  const auto& a = forward.metrics.histograms().at("delay.total");
  const auto& b = backward.metrics.histograms().at("delay.total");
  ASSERT_EQ(a.count(), 7u);
  ASSERT_EQ(a.count(), b.count());
  ASSERT_DOUBLE_EQ(a.bin_width(), b.bin_width());
  for (std::size_t i = 0; i < a.num_bins(); ++i) {
    EXPECT_EQ(a.bin_count(i), b.bin_count(i)) << "bin " << i;
  }
  EXPECT_DOUBLE_EQ(a.sum(), b.sum());
}

// Acceptance criterion of the telemetry PR: merged histograms are
// bit-identical for any thread count, not just the scalar aggregates.
TEST(Experiment, MergedTelemetryIsBitIdenticalAcrossThreadCounts) {
  const auto topo = small_trace();
  ExperimentConfig serial = quick();
  serial.base.num_packets = 4;
  serial.repetitions = 4;
  serial.threads = 1;
  serial.trial.collect_stats = true;
  ExperimentConfig parallel = serial;
  parallel.threads = 4;

  const auto a = run_point(topo, "dbao", DutyCycle{10}, serial);
  const auto b = run_point(topo, "dbao", DutyCycle{10}, parallel);

  ASSERT_FALSE(a.metrics.counters().empty());
  ASSERT_EQ(a.metrics.counters().size(), b.metrics.counters().size());
  for (const auto& [name, counter] : a.metrics.counters()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(counter.value(), b.metrics.counters().at(name).value());
  }
  ASSERT_FALSE(a.metrics.histograms().empty());
  ASSERT_EQ(a.metrics.histograms().size(), b.metrics.histograms().size());
  for (const auto& [name, hist] : a.metrics.histograms()) {
    SCOPED_TRACE(name);
    const auto& other = b.metrics.histograms().at(name);
    ASSERT_EQ(hist.num_bins(), other.num_bins());
    EXPECT_DOUBLE_EQ(hist.bin_width(), other.bin_width());
    EXPECT_EQ(hist.count(), other.count());
    EXPECT_DOUBLE_EQ(hist.sum(), other.sum());
    EXPECT_DOUBLE_EQ(hist.min(), other.min());
    EXPECT_DOUBLE_EQ(hist.max(), other.max());
    for (std::size_t i = 0; i < hist.num_bins(); ++i) {
      EXPECT_EQ(hist.bin_count(i), other.bin_count(i)) << "bin " << i;
    }
  }
  EXPECT_EQ(a.metrics.counters().at("runs.total").value(), 4u);
  EXPECT_EQ(a.metrics.histograms().at("energy.per_node").count(),
            4u * topo.num_nodes());
}

TEST(Experiment, CollectStatsOffLeavesRegistryEmpty) {
  const auto topo = small_trace();
  const auto point = run_point(topo, "opt", DutyCycle{10}, quick());
  EXPECT_TRUE(point.metrics.counters().empty());
  EXPECT_TRUE(point.metrics.histograms().empty());
}

TEST(Experiment, ReportPathWritesASweepReport) {
  const auto topo = small_trace();
  ExperimentConfig config = quick();
  config.repetitions = 2;
  const auto path = std::filesystem::temp_directory_path() /
                    "ldcf_test_sweep_report.json";
  config.report_path = path.string();
  const auto point = run_point(topo, "opt", DutyCycle{10}, config);
  // report_path implies stats collection.
  EXPECT_FALSE(point.metrics.counters().empty());

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("\"schema\":\"ldcf.sweep_report.v2\""),
            std::string::npos);
  EXPECT_NE(text.find("\"tool\":\"run_point\""), std::string::npos);
  EXPECT_NE(text.find("\"delay.total\""), std::string::npos);
  EXPECT_NE(text.find("\"provenance\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Experiment, ProgressCallbackSeesEveryCompletion) {
  const auto topo = small_trace();
  ExperimentConfig config = quick();
  config.base.num_packets = 2;
  config.repetitions = 3;
  config.threads = 2;
  std::vector<std::size_t> seen;
  config.progress = [&seen](const Progress& p) {
    EXPECT_EQ(p.total, 3u);
    EXPECT_GE(p.elapsed_seconds, 0.0);
    EXPECT_GE(p.tasks_per_sec, 0.0);
    if (p.completed == p.total) {
      // Nothing left: the executor reports no ETA for a finished batch.
      EXPECT_EQ(p.eta_seconds, 0.0);
    }
    seen.push_back(p.completed);
  };
  (void)run_point(topo, "opt", DutyCycle{10}, config);
  EXPECT_EQ(seen, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(EffectiveK, ReductionsAreOrderedByJensen) {
  const auto topo = small_trace();
  const double optimistic = effective_k(topo, KEstimate::kInverseMeanPrr);
  const double pessimistic = effective_k(topo, KEstimate::kHarmonicMean);
  const double tree = effective_k(topo, KEstimate::kTreeWeighted);
  // Jensen: mean(1/q) >= 1/mean(q); all are >= 1 transmission.
  EXPECT_GE(pessimistic, optimistic);
  EXPECT_GE(optimistic, 1.0);
  // The ETX tree picks good links, so it beats the all-links harmonic mean.
  EXPECT_LT(tree, pessimistic);
  EXPECT_GE(tree, 1.0);
}

TEST(EffectiveK, HomogeneousNetworkCollapsesAllModes) {
  const auto topo = topology::make_complete(10, 0.5);
  for (const auto mode :
       {KEstimate::kInverseMeanPrr, KEstimate::kHarmonicMean,
        KEstimate::kTreeWeighted}) {
    EXPECT_NEAR(effective_k(topo, mode), 2.0, 1e-9);
  }
}

TEST(EffectiveK, RejectsLinklessTopology) {
  const topology::Topology lonely =
      topology::Topology::from_links(std::vector<topology::Point2D>(3), {});
  EXPECT_THROW((void)effective_k(lonely, KEstimate::kInverseMeanPrr),
               InvalidArgument);
}

TEST(EffectiveK, SingleLinkTopologyCollapsesAllModes) {
  const topology::Topology topo = topology::Topology::from_links(
      std::vector<topology::Point2D>(2), {{0, 1, 0.5}});
  for (const auto mode :
       {KEstimate::kInverseMeanPrr, KEstimate::kHarmonicMean,
        KEstimate::kTreeWeighted}) {
    EXPECT_NEAR(effective_k(topo, mode), 2.0, 1e-12);
  }
}

TEST(EffectiveK, PerfectLinksNeedExactlyOneTransmission) {
  const auto topo = topology::make_complete(8, 1.0);
  for (const auto mode :
       {KEstimate::kInverseMeanPrr, KEstimate::kHarmonicMean,
        KEstimate::kTreeWeighted}) {
    EXPECT_DOUBLE_EQ(effective_k(topo, mode), 1.0);
  }
}

TEST(EffectiveK, TreeWeightedThrowsWhenSourceReachesNothing) {
  // Links exist (so the linkless check passes) but none leave the source:
  // the ETX tree from node 0 is empty and the reduction must refuse.
  const topology::Topology topo = topology::Topology::from_links(
      std::vector<topology::Point2D>(3), {{1, 2, 0.8}});
  EXPECT_THROW((void)effective_k(topo, KEstimate::kTreeWeighted),
               InvalidArgument);
  // The link-global reductions still work on the same topology.
  EXPECT_NEAR(effective_k(topo, KEstimate::kInverseMeanPrr), 1.25, 1e-12);
  EXPECT_NEAR(effective_k(topo, KEstimate::kHarmonicMean), 1.25, 1e-12);
}

TEST(Experiment, PacketSeriesHasOneEntryPerPacket) {
  const auto topo = small_trace();
  sim::SimConfig config = quick().base;
  config.num_packets = 8;
  const auto series = run_packet_series(topo, "dbao", config);
  EXPECT_EQ(series.protocol, "dbao");
  ASSERT_EQ(series.total_delay.size(), 8u);
  for (std::size_t p = 0; p < 8; ++p) {
    EXPECT_EQ(series.total_delay[p],
              series.queueing_delay[p] + series.transmission_delay[p]);
  }
}

// Fig. 9's decomposition must hold per packet for every protocol family:
// the three series stay aligned and total = queueing + transmission.
TEST(Experiment, PacketSeriesDelayDecomposesForEveryProtocol) {
  const auto topo = small_trace();
  sim::SimConfig config = quick().base;
  config.num_packets = 6;
  for (const auto& name : protocols::protocol_names()) {
    const auto series = run_packet_series(topo, name, config);
    SCOPED_TRACE(name);
    ASSERT_EQ(series.total_delay.size(), 6u);
    ASSERT_EQ(series.queueing_delay.size(), 6u);
    ASSERT_EQ(series.transmission_delay.size(), 6u);
    for (std::size_t p = 0; p < series.total_delay.size(); ++p) {
      EXPECT_EQ(series.total_delay[p],
                series.queueing_delay[p] + series.transmission_delay[p]);
    }
  }
}

TEST(Experiment, ConformanceOffLeavesTrialsUnchecked) {
  const auto topo = small_trace();
  const TrialStats stats =
      run_trial(topo, "opt", quick().base, TrialOptions{});
  EXPECT_FALSE(stats.conformance_checked);
  EXPECT_EQ(stats.conformance_violations, 0u);
  const auto point = run_point(topo, "opt", DutyCycle{10}, quick());
  EXPECT_EQ(point.violating_trials, 0u);
}

TEST(Experiment, ConformanceCountsViolatingTrials) {
  // The lossy default topology blows past the Theorem 2 envelope (that is
  // the check's purpose), so every trial should register as violating —
  // and the count must be bit-identical across thread counts.
  const auto topo = small_trace();
  ExperimentConfig config = quick();
  config.base.duty = DutyCycle{10};
  config.repetitions = 3;
  config.trial.check_conformance = true;

  config.threads = 1;
  const auto serial = run_point(topo, "of", DutyCycle{10}, config);
  config.threads = 3;
  const auto threaded = run_point(topo, "of", DutyCycle{10}, config);

  EXPECT_EQ(serial.violating_trials, threaded.violating_trials);
  EXPECT_GT(serial.violating_trials, 0u);
  EXPECT_LE(serial.violating_trials, config.repetitions);
  // The flight recorder must not perturb the run it watches.
  EXPECT_DOUBLE_EQ(serial.mean_delay, threaded.mean_delay);
  EXPECT_DOUBLE_EQ(serial.attempts, threaded.attempts);
}

TEST(Experiment, ConformanceReachesTheSweepReport) {
  const auto topo = small_trace();
  ExperimentConfig config = quick();
  config.repetitions = 2;
  config.trial.check_conformance = true;
  const std::string path =
      (std::filesystem::temp_directory_path() / "ldcf_conf_report.json")
          .string();
  config.report_path = path;
  (void)run_point(topo, "opt", DutyCycle{10}, config);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"violating_trials\""), std::string::npos);
  std::filesystem::remove(path);
}

// The contract every TrialOptions{} caller relies on: nothing is attached,
// and the trial's scalars are exactly those of a bare engine run.
TEST(RunPath, EmptyOptionsAttachNothingForEveryProtocol) {
  const auto topo = small_trace();
  sim::SimConfig config = quick().base;
  config.duty = DutyCycle{10};
  for (const std::string& name : protocols::protocol_names()) {
    SCOPED_TRACE(name);
    const TrialStats stats = run_trial(topo, name, config, TrialOptions{});
    EXPECT_TRUE(stats.metrics.counters().empty());
    EXPECT_TRUE(stats.metrics.histograms().empty());
    EXPECT_TRUE(stats.timeseries.empty());
    EXPECT_TRUE(stats.netmap.empty());
    EXPECT_FALSE(stats.conformance_checked);

    const auto proto = protocols::make_protocol(name);
    const sim::SimResult bare = sim::run_simulation(topo, config, *proto);
    EXPECT_EQ(stats.mean_delay, bare.metrics.mean_total_delay());
    EXPECT_EQ(stats.mean_queueing_delay, bare.metrics.mean_queueing_delay());
    EXPECT_EQ(stats.mean_transmission_delay,
              bare.metrics.mean_transmission_delay());
    EXPECT_EQ(stats.failures,
              static_cast<double>(bare.metrics.channel.failures()));
    EXPECT_EQ(stats.attempts,
              static_cast<double>(bare.metrics.channel.attempts));
    EXPECT_EQ(stats.duplicates,
              static_cast<double>(bare.metrics.channel.duplicates));
    EXPECT_EQ(stats.energy_total, bare.energy.total);
    EXPECT_EQ(stats.lifetime_slots,
              sim::estimate_lifetime_slots(bare.tally, config.energy,
                                           bare.metrics.end_slot));
    EXPECT_EQ(stats.all_covered, bare.metrics.all_covered);
    EXPECT_EQ(stats.truncated, bare.metrics.truncated);
  }
}

template <typename Write>
std::string to_json(Write write) {
  std::ostringstream out;
  {
    obs::JsonWriter json(out);
    write(json);
  }
  return out.str();
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// run_trial is make_protocol + run_observed + a reduction: with every
// observer on, the core's artifacts are exactly what the trial reports.
TEST(RunPath, ObservedRunMatchesRunTrialWithEveryObserverOn) {
  const auto topo = small_trace();
  sim::SimConfig config = quick().base;
  config.duty = DutyCycle{10};
  const auto dir = std::filesystem::temp_directory_path();
  const auto heartbeat_path = dir / "ldcf_run_path_heartbeat.jsonl";
  std::filesystem::remove(heartbeat_path);
  obs::HeartbeatWriter heartbeat(heartbeat_path.string());

  TrialOptions options;
  options.collect_stats = true;
  options.check_conformance = true;
  options.heartbeat = &heartbeat;
  options.watchdog = obs::WatchdogConfig{};
  options.collect_series = true;
  options.series.window_slots = 64;

  const auto proto = protocols::make_protocol("dbao");
  options.trace_path = (dir / "ldcf_run_path_core.jsonl").string();
  const ObservedRun run = run_observed(topo, *proto, config, options);
  options.trace_path = (dir / "ldcf_run_path_trial.jsonl").string();
  const TrialStats stats = run_trial(topo, "dbao", config, options);

  const sim::RunMetrics& m = run.result.metrics;
  EXPECT_EQ(stats.mean_delay, m.mean_total_delay());
  EXPECT_EQ(stats.attempts, static_cast<double>(m.channel.attempts));
  EXPECT_EQ(stats.failures, static_cast<double>(m.channel.failures()));
  EXPECT_EQ(stats.energy_total, run.result.energy.total);
  EXPECT_EQ(stats.all_covered, m.all_covered);
  EXPECT_FALSE(run.metrics.counters().empty());
  EXPECT_EQ(to_json([&](obs::JsonWriter& j) {
              obs::write_registry(j, stats.metrics);
            }),
            to_json([&](obs::JsonWriter& j) {
              obs::write_registry(j, run.metrics);
            }));
  EXPECT_FALSE(run.timeseries.empty());
  EXPECT_EQ(to_json([&](obs::JsonWriter& j) {
              obs::write_timeseries(j, stats.timeseries);
            }),
            to_json([&](obs::JsonWriter& j) {
              obs::write_timeseries(j, run.timeseries);
            }));
  EXPECT_EQ(to_json([&](obs::JsonWriter& j) {
              obs::write_netmap(j, stats.netmap);
            }),
            to_json([&](obs::JsonWriter& j) {
              obs::write_netmap(j, run.netmap);
            }));
  ASSERT_TRUE(run.analysis.has_value());
  EXPECT_TRUE(stats.conformance_checked);
  EXPECT_EQ(stats.conformance_violations,
            run.analysis->conformance.violations());

  const std::string core_trace = file_bytes(dir / "ldcf_run_path_core.jsonl");
  EXPECT_FALSE(core_trace.empty());
  EXPECT_EQ(core_trace, file_bytes(dir / "ldcf_run_path_trial.jsonl"));
  // One `done` record per run, labelled with the protocol's name.
  const std::string beats = file_bytes(heartbeat_path);
  std::size_t done = 0;
  for (std::size_t at = 0;
       (at = beats.find("\"done\":true", at)) != std::string::npos; ++at) {
    ++done;
  }
  EXPECT_EQ(done, 2u);
  EXPECT_NE(beats.find("\"label\":\"dbao\""), std::string::npos);
  std::filesystem::remove(dir / "ldcf_run_path_core.jsonl");
  std::filesystem::remove(dir / "ldcf_run_path_trial.jsonl");
  std::filesystem::remove(heartbeat_path);
}

}  // namespace
}  // namespace ldcf::analysis
