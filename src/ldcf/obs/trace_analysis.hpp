// Causal trace analytics: dissemination trees, delay waterfalls, and
// theory-conformance checking.
//
// Where StatsObserver aggregates a run into distributions, this layer
// *explains* one: from the engine's event stream (recorded in memory by a
// sim::TraceObserver or parsed back from a JSONL trace via
// read_event_trace) it
// reconstructs, per packet,
//
//   - the dissemination tree: who infected whom, at which slot, at what
//     depth — plus the holder-count trajectory X(c) over dissemination
//     slots, which is exactly the Galton–Watson process of Lemma 1/2
//     (unicast holders can at most double per slot, so X(c+1)/X(c) <= 2);
//   - the delay waterfall: the packet's source-to-coverage delay split into
//     queueing (waiting for a wakeup with the source idle), blocking (the
//     source was busy transmitting earlier packets; Corollary 1 bounds the
//     number of distinct blockers by m - 1), and transmission
//     (first transmission to coverage);
//
// and evaluates the run against the paper's bounds: Lemma 1/2 growth,
// Lemma 2's FWL floor, Corollary 1's blocking window, and Theorem 2's
// E[FDL] envelope [T(m/2 + M - 1), T(2m + M/2 - 1)] — emitting per-check
// pass/violation verdicts. Results serialize as an `ldcf.trace_analysis.v1`
// JSON report, a human-readable text rendering, and per-packet Graphviz
// dot trees.
//
// The theory assumes reliable links and unicast dissemination; on lossy
// topologies a failed Theorem 2 envelope check flags a run whose delay the
// reliable-link theory cannot explain (that is the point: sweeps count such
// trials via ExperimentConfig::trial.check_conformance). Broadcast
// protocols void the unicast growth model, so growth/FWL checks mark
// themselves not applicable when the trace contains broadcast
// transmissions.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/sim/metrics.hpp"
#include "ldcf/sim/trace_observer.hpp"

namespace ldcf::obs {

/// One delivery edge in a packet's dissemination tree.
struct TreeEdge {
  NodeId node = kNoNode;    ///< the newly infected node.
  NodeId parent = kNoNode;  ///< who it got its first copy from.
  SlotIndex slot = 0;       ///< delivery slot.
  std::uint32_t depth = 0;  ///< hops from the source (source = 0).
  bool overheard = false;   ///< promiscuous/broadcast decode.
};

/// Reconstructed dissemination of one packet: the delivery parent/child
/// edges plus the Galton–Watson view of the growth.
struct DisseminationTree {
  PacketId packet = kNoPacket;
  SlotIndex generated_at = kNeverSlot;
  SlotIndex first_tx_at = kNeverSlot;
  SlotIndex covered_at = kNeverSlot;
  std::vector<TreeEdge> edges;  ///< in delivery order; size == deliveries.
  std::uint32_t max_depth = 0;
  /// Node count per depth; [0] == 1 (the source), so the per-hop branching
  /// factor is nodes_per_depth[d + 1] / nodes_per_depth[d].
  std::vector<std::uint64_t> nodes_per_depth;
  /// Holder count X(c) sampled after each *dissemination slot* (a slot with
  /// at least one delivery of this packet); holders[0] == 1 (the source).
  std::vector<std::uint64_t> holders;
  /// Number of dissemination slots — the measured compact-scale FWL.
  std::uint64_t dissemination_slots = 0;
  /// Geometric mean growth per dissemination slot (the empirical mu of
  /// Lemma 1); 0 when the packet never disseminated.
  double mean_growth = 0.0;
  /// Largest single-slot growth factor of the *unicast* process:
  /// (X(c) + direct deliveries in slot c+1) / X(c). Lemma 1 bounds this by
  /// 2 — every holder recruits at most one new holder per slot. Overheard
  /// deliveries join the holder base X but not the growth numerator: a
  /// single transmission decoded promiscuously by several neighbors is
  /// outside the Galton–Watson recruitment model.
  double max_growth = 0.0;

  [[nodiscard]] bool covered() const { return covered_at != kNeverSlot; }
  [[nodiscard]] std::uint64_t deliveries() const { return edges.size(); }
};

/// One packet's source-to-coverage delay, decomposed. All components are in
/// original slots and sum to `total` for covered packets.
struct DelayWaterfall {
  PacketId packet = kNoPacket;
  bool covered = false;
  std::uint64_t queueing = 0;      ///< waiting, source idle (schedule waits).
  std::uint64_t blocking = 0;      ///< waiting, source busy with earlier packets.
  std::uint64_t transmission = 0;  ///< first transmission to coverage.
  std::uint64_t total = 0;         ///< generated_at to covered_at.
  /// Distinct earlier packets the source transmitted while this one waited
  /// — the measured blocking depth Corollary 1 bounds by m - 1.
  std::uint64_t blocking_depth = 0;
};

/// One theory check: a measured quantity against its bound(s). A non-finite
/// bound means that side is unconstrained (serialized as JSON null).
struct ConformanceCheck {
  std::string name;        ///< e.g. "theorem2.fdl_envelope".
  bool applicable = true;  ///< premise held (and inputs were available).
  bool pass = true;        ///< meaningful only when applicable.
  double measured = 0.0;
  double lower = 0.0;  ///< -inf when unbounded below.
  double upper = 0.0;  ///< +inf when unbounded above.
  std::string detail;  ///< one human-readable line.
};

struct ConformanceReport {
  std::vector<ConformanceCheck> checks;
  /// Failed applicable checks.
  [[nodiscard]] std::uint32_t violations() const;
  [[nodiscard]] bool conformant() const { return violations() == 0; }
};

/// Analysis inputs the trace itself cannot carry.
struct TraceAnalysisOptions {
  /// N (sensors, excluding the source); 0 = derive from the trace as the
  /// largest node id seen (exact once the run touched every sensor).
  std::uint64_t num_sensors = 0;
  /// Working-schedule period T; 0 = unknown (the Theorem 2 envelope and
  /// Corollary 1 window need it — those checks mark themselves not
  /// applicable without it).
  std::uint32_t duty_period = 0;
  NodeId source = 0;
  /// Fractional slack widening the Theorem 2 envelope: a violation is
  /// FDL > upper * (1 + slack). The lower bound is reported but never
  /// violates — the envelope bounds an *expectation*, so a single run
  /// finishing early (overhearing, lucky schedules) is consistent with it.
  double fdl_slack = 0.0;
};

/// Everything the analyzer reconstructs from one run's event stream.
struct TraceAnalysis {
  TraceAnalysisOptions options;  ///< as resolved (derived N filled in).
  bool sensors_derived = false;  ///< num_sensors came from the trace.

  std::vector<DisseminationTree> trees;       ///< ascending by packet id.
  std::vector<DelayWaterfall> waterfalls;     ///< same order as trees.
  ConformanceReport conformance;

  // Run scalars (from the run_end event when present).
  bool has_run_end = false;
  SlotIndex end_slot = 0;
  bool all_covered = false;
  bool truncated = false;
  /// Measured multi-packet FDL: last coverage slot minus first generation
  /// slot (0 until something covered).
  std::uint64_t measured_fdl = 0;

  // Aggregates cross-checkable against RunMetrics/StatsObserver: the tx
  // outcomes and overheard deliveries counted exactly as the engine does.
  std::uint64_t total_deliveries = 0;
  sim::ChannelCounters channel;

  [[nodiscard]] const DisseminationTree* tree(PacketId packet) const;
};

/// Reconstruct trees, waterfalls and conformance verdicts from an event
/// stream (TraceObserver::events() or read_event_trace output). Throws
/// InvalidArgument on causally broken traces (a delivery whose parent never
/// obtained the packet, a delivery of the source, ...).
[[nodiscard]] TraceAnalysis analyze_trace(
    std::span<const sim::TraceEvent> events,
    const TraceAnalysisOptions& options = {});

/// Parse a JSONL trace file and analyze it.
[[nodiscard]] TraceAnalysis analyze_trace_file(
    const std::string& path, const TraceAnalysisOptions& options = {});

/// Graphviz dot rendering of one packet's dissemination tree (render with
/// `dot -Tsvg`): edges labeled with delivery slots, overheard deliveries
/// dashed, nodes ranked by depth.
void write_tree_dot(std::ostream& out, const DisseminationTree& tree);
void write_tree_dot_file(const std::string& path,
                         const DisseminationTree& tree);

/// Serialize a complete `ldcf.trace_analysis.v1` document: provenance,
/// resolved params, run scalars, channel totals, per-packet trees and
/// waterfalls, and the conformance verdicts.
struct TraceAnalysisReportContext {
  std::string tool;        ///< e.g. "trace_analyze", "flood_sim".
  std::string trace_path;  ///< input trace ("" when analyzed live).
  const TraceAnalysis* analysis = nullptr;
};
void write_trace_analysis_report(std::ostream& out,
                                 const TraceAnalysisReportContext& context);
void write_trace_analysis_report_file(
    const std::string& path, const TraceAnalysisReportContext& context);

/// Human-readable rendering: per-packet waterfall table, per-hop branching,
/// and the conformance verdict lines.
void print_trace_analysis(std::ostream& out, const TraceAnalysis& analysis);

}  // namespace ldcf::obs
