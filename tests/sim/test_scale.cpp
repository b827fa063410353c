// Large-N integration tests: the full staged engine on a 10k-node
// spatial-hash topology, with perturbations active — the scale regime the
// generators' O(N^2) loop used to make untestable.
#include <gtest/gtest.h>

#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace ldcf::sim {
namespace {

constexpr std::uint32_t kSensors = 10'000;

/// One shared 10k-node topology (built once; keyed link RNG, constant
/// GreenOrbs density, source reaching >= 99 % of the sensors).
const topology::Topology& big_trace() {
  static const topology::Topology topo = topology::make_network(
      "clustered", kSensors, 2, topology::LinkRngMode::kPairKeyed);
  return topo;
}

SimConfig base_config() {
  SimConfig config;
  config.num_packets = 2;
  config.duty = DutyCycle{10};
  config.seed = 21;
  config.max_slots = 20'000;
  return config;
}

Perturbations standard_faults() {
  Perturbations perturb;
  // Early and mid-run deaths spread over the id space, plus periodic
  // link-quality bursts: both fault paths exercised in one run.
  perturb.node_failures = {{17, 0}, {4'321, 50}, {9'876, 200}};
  perturb.burst = LinkBurst{0.5, 25, 50, 200};
  return perturb;
}

TEST(Scale, TenKNodeTopologyIsPlausibleAndSealed) {
  const auto& topo = big_trace();
  EXPECT_EQ(topo.num_sensors(), kSensors);
  EXPECT_GE(topo.reachable_fraction(), 0.99);
  EXPECT_GT(topo.mean_degree(), 4.0);
  EXPECT_LT(topo.mean_degree(), 120.0);
  EXPECT_GT(topo.mean_prr(), 0.1);
}

TEST(Scale, EngineRunsFaultsAtTenK) {
  const auto& topo = big_trace();
  SimConfig config = base_config();
  config.perturbations = standard_faults();
  const auto proto = protocols::make_protocol("dbao");
  const SimResult result = run_simulation(topo, config, *proto);
  EXPECT_GT(result.metrics.end_slot, 0u);
  EXPECT_LE(result.metrics.end_slot, config.max_slots);
  // Coverage accounting stays coherent: the target never exceeds the
  // sensor count, and a non-truncated run must have covered every packet.
  EXPECT_LE(result.metrics.coverage_target, kSensors);
  EXPECT_GT(result.metrics.coverage_target, 0u);
  EXPECT_GE(result.metrics.covered_fraction(), 0.0);
  EXPECT_LE(result.metrics.covered_fraction(), 1.0);
  if (!result.metrics.truncated) {
    EXPECT_TRUE(result.metrics.all_covered);
    EXPECT_DOUBLE_EQ(result.metrics.covered_fraction(), 1.0);
  }
  EXPECT_GT(result.metrics.channel.attempts, 0u);
}

TEST(Scale, TruncationIsFlaggedHonestly) {
  const auto& topo = big_trace();
  SimConfig config = base_config();
  config.perturbations = standard_faults();
  config.max_slots = 40;  // far too few slots to flood 10k nodes.
  const auto proto = protocols::make_protocol("dbao");
  const SimResult result = run_simulation(topo, config, *proto);
  EXPECT_TRUE(result.metrics.truncated);
  EXPECT_FALSE(result.metrics.all_covered);
  EXPECT_EQ(result.metrics.end_slot, 40u);
}

TEST(Scale, ThreadCountDoesNotChangeResultsUnderPerturbations) {
  // The parallel trial executor promises bit-identical reductions for any
  // worker count; exercise that promise at 10k nodes with deaths and
  // bursts active rather than on the usual toy traces.
  const auto& topo = big_trace();
  analysis::ExperimentConfig experiment;
  experiment.base = base_config();
  experiment.base.perturbations = standard_faults();
  experiment.base.max_slots = 2'000;
  experiment.repetitions = 4;
  experiment.threads = 1;
  const analysis::ProtocolPoint serial =
      analysis::run_point(topo, "dbao", experiment.base.duty, experiment);
  experiment.threads = 4;
  const analysis::ProtocolPoint threaded =
      analysis::run_point(topo, "dbao", experiment.base.duty, experiment);

  EXPECT_EQ(serial.mean_delay, threaded.mean_delay);  // bitwise, not near.
  EXPECT_EQ(serial.delay_stddev, threaded.delay_stddev);
  EXPECT_EQ(serial.attempts, threaded.attempts);
  EXPECT_EQ(serial.failures, threaded.failures);
  EXPECT_EQ(serial.duplicates, threaded.duplicates);
  EXPECT_EQ(serial.energy_total, threaded.energy_total);
  EXPECT_EQ(serial.all_covered, threaded.all_covered);
  EXPECT_EQ(serial.truncated, threaded.truncated);
  EXPECT_EQ(serial.truncated_trials, threaded.truncated_trials);
}

TEST(Scale, ScaleSweepReportsMonotoneSizes) {
  // A miniature run_scale_sweep end-to-end: sizes build, sims run, and
  // the per-size bookkeeping (links, reachability, build time) is filled.
  analysis::ExperimentConfig experiment;
  experiment.base = base_config();
  experiment.base.max_slots = 1'500;
  experiment.repetitions = 1;
  experiment.threads = 1;
  const std::vector<analysis::ScalePoint> points =
      analysis::run_scale_sweep({300, 1'000}, "of", 0.1, experiment);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].num_sensors, 300u);
  EXPECT_EQ(points[1].num_sensors, 1'000u);
  for (const analysis::ScalePoint& p : points) {
    EXPECT_GT(p.num_links, 0u);
    EXPECT_GT(p.mean_degree, 1.0);
    EXPECT_GE(p.reachable_fraction, 0.99);
    EXPECT_LE(p.reachable_fraction, 1.0);
    EXPECT_GT(p.eccentricity, 0u);
    EXPECT_GE(p.topology_build_seconds, 0.0);
    EXPECT_GT(p.point.attempts, 0.0);
  }
  EXPECT_GT(points[1].num_links, points[0].num_links);
}

}  // namespace
}  // namespace ldcf::sim
