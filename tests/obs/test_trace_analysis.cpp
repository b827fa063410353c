// Causal trace analytics: the analyzer must agree bit-for-bit with the
// engine's own accounting (StatsObserver / RunMetrics) on real runs,
// reconstruct hand-written synthetic traces exactly, and both pass the
// paper's bounds on reliable-link runs and flag deliberately violating
// traces.
#include "ldcf/obs/trace_analysis.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

// The golden-fingerprint run (see sim/test_golden_metrics.cpp): every
// registered protocol covers this topology/config, so the cross-checks
// exercise unicast, broadcast-only (flash) and overhearing paths.
topology::Topology golden_topology() {
  topology::ClusterConfig config;
  config.base.num_sensors = 60;
  config.base.area_side_m = 260.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 5;
  config.num_clusters = 6;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

sim::SimConfig golden_config() {
  sim::SimConfig config;
  config.num_packets = 12;
  config.duty = DutyCycle{10};
  config.seed = 3;
  config.max_slots = 2'000'000;
  return config;
}

/// The same graph with every link forced to PRR 1.0 — the reliable-link
/// regime the paper's theory assumes.
topology::Topology reliable_copy(const topology::Topology& topo) {
  std::vector<topology::Point2D> positions;
  positions.reserve(topo.num_nodes());
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    positions.push_back(topo.position(n));
  }
  std::vector<topology::LinkRecord> links;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (const topology::Link& link : topo.neighbors(n)) {
      links.push_back({n, link.to, 1.0});
    }
  }
  return topology::Topology::from_links(std::move(positions),
                                        std::move(links));
}

const obs::ConformanceCheck& find_check(const obs::TraceAnalysis& analysis,
                                        const std::string& name) {
  for (const obs::ConformanceCheck& check : analysis.conformance.checks) {
    if (check.name == name) return check;
  }
  ADD_FAILURE() << "missing check " << name;
  static const obs::ConformanceCheck missing{};
  return missing;
}

// Structural JSON check (same idiom as obs/test_report.cpp): braces and
// brackets balance outside strings and the document is one value.
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool closed_top = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        if (closed_top) return false;
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) closed_top = true;
        break;
      case ',':
        if (depth == 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && closed_top;
}

// --- Synthetic trace helpers -----------------------------------------------

sim::TraceEvent generate_event(PacketId packet, SlotIndex slot) {
  sim::TraceEvent ev;
  ev.kind = sim::TraceEvent::Kind::kGenerate;
  ev.packet = packet;
  ev.slot = slot;
  return ev;
}

sim::TraceEvent tx_event(NodeId sender, NodeId receiver, PacketId packet,
                         SlotIndex slot,
                         sim::TxOutcome outcome = sim::TxOutcome::kDelivered) {
  sim::TraceEvent ev;
  ev.kind = sim::TraceEvent::Kind::kTx;
  ev.sender = sender;
  ev.receiver = receiver;
  ev.packet = packet;
  ev.slot = slot;
  ev.outcome = outcome;
  return ev;
}

sim::TraceEvent delivery_event(NodeId node, PacketId packet, NodeId from,
                               SlotIndex slot, bool overheard = false) {
  sim::TraceEvent ev;
  ev.kind = sim::TraceEvent::Kind::kDelivery;
  ev.node = node;
  ev.packet = packet;
  ev.from = from;
  ev.slot = slot;
  ev.overheard = overheard;
  return ev;
}

sim::TraceEvent covered_event(PacketId packet, SlotIndex slot) {
  sim::TraceEvent ev;
  ev.kind = sim::TraceEvent::Kind::kCovered;
  ev.packet = packet;
  ev.slot = slot;
  return ev;
}

sim::TraceEvent run_end_event(SlotIndex end_slot, bool all_covered) {
  sim::TraceEvent ev;
  ev.kind = sim::TraceEvent::Kind::kRunEnd;
  ev.end_slot = end_slot;
  ev.all_covered = all_covered;
  return ev;
}

// --- Cross-checks against the engine's own accounting ----------------------

TEST(TraceAnalysis, AgreesWithEngineMetricsForEveryProtocol) {
  const topology::Topology topo = golden_topology();
  const sim::SimConfig config = golden_config();
  for (const std::string& name : protocols::protocol_names()) {
    SCOPED_TRACE(name);
    sim::TraceObserver recorder;
    obs::StatsObserver stats(topo.num_nodes(), config.num_packets);
    sim::MultiObserver fan_out;
    fan_out.add(&recorder);
    fan_out.add(&stats);
    auto proto = protocols::make_protocol(name);
    const sim::SimResult res =
        sim::run_simulation(topo, config, *proto, &fan_out);

    obs::TraceAnalysisOptions options;
    options.num_sensors = topo.num_sensors();
    options.duty_period = config.duty.period;
    const obs::TraceAnalysis analysis =
        obs::analyze_trace(recorder.events(), options);

    // Channel totals, bit-for-bit against RunMetrics.
    const auto& channel = res.metrics.channel;
    EXPECT_EQ(analysis.channel.attempts, channel.attempts);
    EXPECT_EQ(analysis.channel.delivered, channel.delivered);
    EXPECT_EQ(analysis.channel.duplicates, channel.duplicates);
    EXPECT_EQ(analysis.channel.losses, channel.losses);
    EXPECT_EQ(analysis.channel.collisions, channel.collisions);
    EXPECT_EQ(analysis.channel.receiver_busy, channel.receiver_busy);
    EXPECT_EQ(analysis.channel.broadcasts, channel.broadcasts);
    EXPECT_EQ(analysis.channel.sync_misses, channel.sync_misses);
    EXPECT_EQ(analysis.channel.overhear_deliveries, channel.overhear_deliveries);

    // ... and against the StatsObserver registry watching the same run.
    EXPECT_EQ(analysis.channel.attempts,
              stats.registry().counter("tx.attempts").value());
    EXPECT_EQ(analysis.channel.overhear_deliveries,
              stats.registry().counter("delivery.overheard").value());

    // Per-packet: tree node counts are the engine's delivery counts, and
    // the coverage/generation/first-tx slots line up exactly.
    ASSERT_EQ(analysis.trees.size(), res.metrics.packets.size());
    std::uint64_t delivery_sum = 0;
    for (const auto& rec : res.metrics.packets) {
      const obs::DisseminationTree* tree = analysis.tree(rec.packet);
      ASSERT_NE(tree, nullptr);
      EXPECT_EQ(tree->deliveries(), rec.deliveries);
      EXPECT_EQ(tree->generated_at, rec.generated_at);
      EXPECT_EQ(tree->first_tx_at, rec.first_tx_at);
      EXPECT_EQ(tree->covered_at, rec.covered_at);
      delivery_sum += rec.deliveries;
    }
    EXPECT_EQ(analysis.total_deliveries, delivery_sum);

    // Waterfall identity: queueing + blocking is the engine's queueing
    // delay, and the components sum to the total delay.
    ASSERT_EQ(analysis.waterfalls.size(), res.metrics.packets.size());
    for (std::size_t p = 0; p < analysis.waterfalls.size(); ++p) {
      const obs::DelayWaterfall& wf = analysis.waterfalls[p];
      const auto& rec = res.metrics.packets[p];
      EXPECT_EQ(wf.packet, rec.packet);
      EXPECT_EQ(wf.covered, rec.covered());
      if (rec.covered()) {
        EXPECT_EQ(wf.queueing + wf.blocking, rec.queueing_delay());
        EXPECT_EQ(wf.transmission, rec.transmission_delay());
        EXPECT_EQ(wf.total, rec.total_delay());
      }
    }

    // Run scalars.
    EXPECT_TRUE(analysis.has_run_end);
    EXPECT_EQ(analysis.end_slot, res.metrics.end_slot);
    EXPECT_EQ(analysis.all_covered, res.metrics.all_covered);
    EXPECT_EQ(analysis.truncated, res.metrics.truncated);
  }
}

TEST(TraceAnalysis, FileRoundTripMatchesLiveRecorder) {
  const topology::Topology topo = golden_topology();
  const sim::SimConfig config = golden_config();
  const std::string path = testing::TempDir() + "ldcf_analysis_test.jsonl";
  sim::TraceObserver recorder;
  {
    sim::TraceObserver observer(path);
    sim::MultiObserver fan_out;
    fan_out.add(&observer);
    fan_out.add(&recorder);
    auto proto = protocols::make_protocol("opt");
    (void)sim::run_simulation(topo, config, *proto, &fan_out);
  }
  obs::TraceAnalysisOptions options;
  options.num_sensors = topo.num_sensors();
  options.duty_period = config.duty.period;
  const obs::TraceAnalysis live =
      obs::analyze_trace(recorder.events(), options);
  const obs::TraceAnalysis parsed = obs::analyze_trace_file(path, options);
  std::remove(path.c_str());

  ASSERT_EQ(live.trees.size(), parsed.trees.size());
  EXPECT_EQ(live.measured_fdl, parsed.measured_fdl);
  EXPECT_EQ(live.channel.attempts, parsed.channel.attempts);
  EXPECT_EQ(live.total_deliveries, parsed.total_deliveries);
  EXPECT_EQ(live.conformance.violations(), parsed.conformance.violations());
  for (std::size_t i = 0; i < live.trees.size(); ++i) {
    EXPECT_EQ(live.trees[i].edges.size(), parsed.trees[i].edges.size());
    EXPECT_EQ(live.trees[i].holders, parsed.trees[i].holders);
  }
}

TEST(TraceAnalysis, DerivesSensorCountWhenNotGiven) {
  const topology::Topology topo = golden_topology();
  sim::TraceObserver recorder;
  auto proto = protocols::make_protocol("opt");
  (void)sim::run_simulation(topo, golden_config(), *proto, &recorder);
  const obs::TraceAnalysis analysis = obs::analyze_trace(recorder.events());
  EXPECT_TRUE(analysis.sensors_derived);
  // The golden run covers all 60 sensors, so the largest id seen is N.
  EXPECT_EQ(analysis.options.num_sensors, topo.num_sensors());
}

// --- Synthetic traces: exact reconstruction --------------------------------

TEST(TraceAnalysis, ReconstructsHandWrittenTree) {
  // Source 0 recruits node 1 (slot 2); both recruit one each in slot 4
  // (nodes 2 and 3); node 5 overhears node 2's copy in slot 6.
  const std::vector<sim::TraceEvent> events = {
      generate_event(0, 0),
      tx_event(0, 1, 0, 2),
      delivery_event(1, 0, 0, 2),
      tx_event(0, 2, 0, 4),
      delivery_event(2, 0, 0, 4),
      tx_event(1, 3, 0, 4),
      delivery_event(3, 0, 1, 4),
      tx_event(2, 4, 0, 6),
      delivery_event(4, 0, 2, 6),
      delivery_event(5, 0, 2, 6, /*overheard=*/true),
      covered_event(0, 6),
      run_end_event(7, true),
  };
  obs::TraceAnalysisOptions options;
  options.num_sensors = 5;
  const obs::TraceAnalysis analysis = obs::analyze_trace(events, options);

  ASSERT_EQ(analysis.trees.size(), 1u);
  const obs::DisseminationTree& tree = analysis.trees[0];
  EXPECT_EQ(tree.packet, 0u);
  EXPECT_EQ(tree.generated_at, 0u);
  EXPECT_EQ(tree.first_tx_at, 2u);
  EXPECT_EQ(tree.covered_at, 6u);
  EXPECT_EQ(tree.deliveries(), 5u);
  EXPECT_EQ(tree.dissemination_slots, 3u);
  EXPECT_EQ(tree.holders, (std::vector<std::uint64_t>{1, 2, 4, 6}));
  EXPECT_EQ(tree.max_depth, 2u);
  EXPECT_EQ(tree.nodes_per_depth, (std::vector<std::uint64_t>{1, 2, 3}));
  // Unicast growth: 1->2 (x2), 2->4 (x2), then one direct + one overheard
  // delivery from 4 holders ((4+1)/4 = 1.25) — the overhear does not count.
  EXPECT_DOUBLE_EQ(tree.max_growth, 2.0);

  ASSERT_EQ(analysis.waterfalls.size(), 1u);
  const obs::DelayWaterfall& wf = analysis.waterfalls[0];
  EXPECT_TRUE(wf.covered);
  EXPECT_EQ(wf.queueing, 2u);
  EXPECT_EQ(wf.blocking, 0u);
  EXPECT_EQ(wf.transmission, 4u);
  EXPECT_EQ(wf.total, 6u);
  EXPECT_EQ(wf.blocking_depth, 0u);

  EXPECT_EQ(analysis.measured_fdl, 6u);
  EXPECT_EQ(analysis.total_deliveries, 5u);
  EXPECT_EQ(analysis.channel.overhear_deliveries, 1u);
}

TEST(TraceAnalysis, DecomposesBlockingFromSourceBusySlots) {
  // Packet 1 waits in [1, 9); the source transmits packet 0 in slots 3 and
  // 5 (two blocking slots, one distinct blocker), so queueing is 8 - 2.
  const std::vector<sim::TraceEvent> events = {
      generate_event(0, 0),
      generate_event(1, 1),
      tx_event(0, 1, 0, 3),
      delivery_event(1, 0, 0, 3),
      tx_event(0, 2, 0, 5),
      delivery_event(2, 0, 0, 5),
      covered_event(0, 5),
      tx_event(0, 1, 1, 9),
      delivery_event(1, 1, 0, 9),
      tx_event(0, 2, 1, 11),
      delivery_event(2, 1, 0, 11),
      covered_event(1, 11),
      run_end_event(12, true),
  };
  obs::TraceAnalysisOptions options;
  options.num_sensors = 2;
  const obs::TraceAnalysis analysis = obs::analyze_trace(events, options);
  ASSERT_EQ(analysis.waterfalls.size(), 2u);
  const obs::DelayWaterfall& wf = analysis.waterfalls[1];
  EXPECT_EQ(wf.blocking, 2u);
  EXPECT_EQ(wf.queueing, 6u);
  EXPECT_EQ(wf.blocking_depth, 1u);
  EXPECT_EQ(wf.transmission, 2u);
  EXPECT_EQ(wf.total, 10u);
}

TEST(TraceAnalysis, RejectsCausallyBrokenTraces) {
  {
    const std::vector<sim::TraceEvent> twice = {generate_event(0, 0),
                                                generate_event(0, 1)};
    EXPECT_THROW((void)obs::analyze_trace(twice), InvalidArgument);
  }
  {
    // Node 2 never obtained the packet, so it cannot be a parent.
    const std::vector<sim::TraceEvent> orphan = {
        generate_event(0, 0), delivery_event(1, 0, 2, 3)};
    EXPECT_THROW((void)obs::analyze_trace(orphan), InvalidArgument);
  }
  {
    const std::vector<sim::TraceEvent> to_source = {
        generate_event(0, 0), delivery_event(0, 0, 1, 3)};
    EXPECT_THROW((void)obs::analyze_trace(to_source), InvalidArgument);
  }
  {
    const std::vector<sim::TraceEvent> duplicate = {
        generate_event(0, 0), delivery_event(1, 0, 0, 3),
        delivery_event(1, 0, 0, 5)};
    EXPECT_THROW((void)obs::analyze_trace(duplicate), InvalidArgument);
  }
}

// --- Conformance: violations detected, reliable runs pass ------------------

TEST(TraceAnalysis, FlagsSyntheticTheoryViolations) {
  // Three direct (non-overheard) recruits from a single holder in one slot
  // breaks Lemma 1's doubling bound; covering the last sensor at slot 400
  // with N = 3, T = 2, M = 1 bursts far past the Theorem 2 envelope.
  const std::vector<sim::TraceEvent> events = {
      generate_event(0, 0),
      tx_event(0, 1, 0, 2),
      delivery_event(1, 0, 0, 2),
      delivery_event(2, 0, 0, 2),
      delivery_event(3, 0, 0, 2),
      covered_event(0, 400),
      run_end_event(401, true),
  };
  obs::TraceAnalysisOptions options;
  options.num_sensors = 3;
  options.duty_period = 2;
  const obs::TraceAnalysis analysis = obs::analyze_trace(events, options);

  const obs::ConformanceCheck& growth =
      find_check(analysis, "lemma12.gw_growth");
  EXPECT_TRUE(growth.applicable);
  EXPECT_FALSE(growth.pass);
  EXPECT_DOUBLE_EQ(growth.measured, 4.0);  // (1 + 3) / 1.

  const obs::ConformanceCheck& fdl =
      find_check(analysis, "theorem2.fdl_envelope");
  EXPECT_TRUE(fdl.applicable);
  EXPECT_FALSE(fdl.pass);
  EXPECT_DOUBLE_EQ(fdl.measured, 400.0);

  EXPECT_FALSE(analysis.conformance.conformant());
  EXPECT_GE(analysis.conformance.violations(), 2u);
}

TEST(TraceAnalysis, FlagsBlockingBeyondCorollary1Window) {
  // N = 40 => m = ceil(log2(41)) = 6, window m - 1 = 5. Generations are
  // spaced a full period apart (the corollary's premise), yet packet 6 is
  // blocked by six distinct earlier packets.
  std::vector<sim::TraceEvent> events;
  const std::uint32_t period = 4;
  for (PacketId p = 0; p < 7; ++p) {
    events.push_back(generate_event(p, p * period));
  }
  // The source services packets 0..5 once each while packet 6 waits...
  for (PacketId p = 0; p < 6; ++p) {
    const SlotIndex slot = 30 + 2 * p;
    events.push_back(tx_event(0, 1 + p, p, slot));
    events.push_back(delivery_event(1 + p, p, 0, slot));
    events.push_back(covered_event(p, slot));
  }
  // ... and only then transmits packet 6.
  events.push_back(tx_event(0, 10, 6, 50));
  events.push_back(delivery_event(10, 6, 0, 50));
  events.push_back(covered_event(6, 50));
  events.push_back(run_end_event(51, true));

  obs::TraceAnalysisOptions options;
  options.num_sensors = 40;
  options.duty_period = period;
  const obs::TraceAnalysis analysis = obs::analyze_trace(events, options);
  const obs::ConformanceCheck& blocking =
      find_check(analysis, "corollary1.blocking_depth");
  EXPECT_TRUE(blocking.applicable);
  EXPECT_FALSE(blocking.pass);
  EXPECT_DOUBLE_EQ(blocking.measured, 6.0);
  EXPECT_DOUBLE_EQ(blocking.upper, 5.0);
}

TEST(TraceAnalysis, BurstGenerationDisablesCorollary1Check) {
  const topology::Topology topo = golden_topology();
  sim::TraceObserver recorder;
  auto proto = protocols::make_protocol("opt");
  (void)sim::run_simulation(topo, golden_config(), *proto, &recorder);
  obs::TraceAnalysisOptions options;
  options.num_sensors = topo.num_sensors();
  options.duty_period = golden_config().duty.period;
  const obs::TraceAnalysis analysis =
      obs::analyze_trace(recorder.events(), options);
  // One generation per slot is a burst on the compact (per-period) scale.
  EXPECT_FALSE(
      find_check(analysis, "corollary1.blocking_depth").applicable);
}

TEST(TraceAnalysis, ReliableLinksConformToTheorem2) {
  // Acceptance: on the reliable-link regime the theory models, the run's
  // FDL must sit inside the Theorem 2 envelope — and the unicast growth
  // and FWL-floor checks must hold too.
  const topology::Topology topo = reliable_copy(golden_topology());
  const sim::SimConfig config = golden_config();
  sim::TraceObserver recorder;
  auto proto = protocols::make_protocol("opt");
  const sim::SimResult res =
      sim::run_simulation(topo, config, *proto, &recorder);
  ASSERT_TRUE(res.metrics.all_covered);

  obs::TraceAnalysisOptions options;
  options.num_sensors = topo.num_sensors();
  options.duty_period = config.duty.period;
  const obs::TraceAnalysis analysis =
      obs::analyze_trace(recorder.events(), options);

  const obs::ConformanceCheck& fdl =
      find_check(analysis, "theorem2.fdl_envelope");
  EXPECT_TRUE(fdl.applicable);
  EXPECT_TRUE(fdl.pass) << fdl.detail;
  EXPECT_TRUE(find_check(analysis, "lemma12.gw_growth").pass);
  EXPECT_TRUE(find_check(analysis, "lemma2.fwl_floor").pass);
  EXPECT_EQ(analysis.conformance.violations(), 0u);
  EXPECT_TRUE(analysis.conformance.conformant());
}

TEST(TraceAnalysis, BroadcastTracesVoidUnicastChecks) {
  const topology::Topology topo = golden_topology();
  sim::TraceObserver recorder;
  auto proto = protocols::make_protocol("flash");
  (void)sim::run_simulation(topo, golden_config(), *proto, &recorder);
  obs::TraceAnalysisOptions options;
  options.num_sensors = topo.num_sensors();
  const obs::TraceAnalysis analysis =
      obs::analyze_trace(recorder.events(), options);
  EXPECT_GT(analysis.channel.broadcasts, 0u);
  EXPECT_FALSE(find_check(analysis, "lemma12.gw_growth").applicable);
  EXPECT_FALSE(find_check(analysis, "lemma2.fwl_floor").applicable);
}

// --- Exports ---------------------------------------------------------------

TEST(TraceAnalysis, DotExportRendersTheTree) {
  const std::vector<sim::TraceEvent> events = {
      generate_event(0, 0),
      tx_event(0, 1, 0, 2),
      delivery_event(1, 0, 0, 2),
      tx_event(1, 2, 0, 4),
      delivery_event(2, 0, 1, 4, /*overheard=*/true),
      covered_event(0, 4),
      run_end_event(5, true),
  };
  const obs::TraceAnalysis analysis = obs::analyze_trace(events);
  ASSERT_EQ(analysis.trees.size(), 1u);
  std::stringstream dot;
  obs::write_tree_dot(dot, analysis.trees[0]);
  const std::string text = dot.str();
  EXPECT_NE(text.find("digraph"), std::string::npos);
  EXPECT_NE(text.find("n0 -> n1"), std::string::npos);
  EXPECT_NE(text.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(text.find("doublecircle"), std::string::npos);  // the source.
  EXPECT_NE(text.find("dashed"), std::string::npos);  // the overheard edge.
}

TEST(TraceAnalysis, ReportIsSchemaTaggedBalancedJson) {
  const topology::Topology topo = golden_topology();
  const sim::SimConfig config = golden_config();
  sim::TraceObserver recorder;
  auto proto = protocols::make_protocol("opt");
  (void)sim::run_simulation(topo, config, *proto, &recorder);
  obs::TraceAnalysisOptions options;
  options.num_sensors = topo.num_sensors();
  options.duty_period = config.duty.period;
  const obs::TraceAnalysis analysis =
      obs::analyze_trace(recorder.events(), options);

  obs::TraceAnalysisReportContext context;
  context.tool = "test";
  context.trace_path = "live";
  context.analysis = &analysis;
  std::stringstream out;
  obs::write_trace_analysis_report(out, context);
  const std::string json = out.str();
  EXPECT_TRUE(balanced_json(json));
  EXPECT_NE(json.find("\"schema\":\"ldcf.trace_analysis.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"conformance\""), std::string::npos);
  EXPECT_NE(json.find("\"packets\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
}

TEST(TraceAnalysis, TextRenderingNamesEveryCheck) {
  const topology::Topology topo = golden_topology();
  sim::TraceObserver recorder;
  auto proto = protocols::make_protocol("opt");
  (void)sim::run_simulation(topo, golden_config(), *proto, &recorder);
  obs::TraceAnalysisOptions options;
  options.num_sensors = topo.num_sensors();
  options.duty_period = golden_config().duty.period;
  const obs::TraceAnalysis analysis =
      obs::analyze_trace(recorder.events(), options);
  std::stringstream out;
  obs::print_trace_analysis(out, analysis);
  const std::string text = out.str();
  for (const char* name : {"lemma12.gw_growth", "lemma2.fwl_floor",
                           "corollary1.blocking_depth",
                           "theorem2.fdl_envelope"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

}  // namespace
