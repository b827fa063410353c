#include "ldcf/obs/trace_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>
#include <unordered_map>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/common/math_utils.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/theory/fdl.hpp"
#include "ldcf/theory/fwl.hpp"

namespace ldcf::obs {

// ---------------------------------------------------------------------------
// Analysis

std::uint32_t ConformanceReport::violations() const {
  std::uint32_t failed = 0;
  for (const ConformanceCheck& check : checks) {
    if (check.applicable && !check.pass) ++failed;
  }
  return failed;
}

const DisseminationTree* TraceAnalysis::tree(PacketId packet) const {
  const auto it = std::lower_bound(
      trees.begin(), trees.end(), packet,
      [](const DisseminationTree& t, PacketId p) { return t.packet < p; });
  if (it == trees.end() || it->packet != packet) return nullptr;
  return &*it;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// Forgiveness for exact-ratio comparisons computed in floating point.
constexpr double kGrowthEps = 1e-9;

/// Mutable per-packet state while walking the event stream.
struct PacketBuild {
  DisseminationTree tree;
  std::unordered_map<NodeId, std::uint32_t> depth_by_node;
  SlotIndex open_slot = kNeverSlot;      ///< dissemination slot being filled.
  std::uint64_t open_deliveries = 0;     ///< deliveries in open_slot so far.
  std::uint64_t open_direct = 0;         ///< ... of which non-overheard.
  /// Direct (non-overheard) deliveries per dissemination slot, parallel to
  /// tree.holders[1..]: the Lemma 1 recruitment counts.
  std::vector<std::uint64_t> direct_new;

  void close_slot() {
    if (open_slot == kNeverSlot) return;
    tree.holders.push_back(tree.holders.back() + open_deliveries);
    direct_new.push_back(open_direct);
    open_slot = kNeverSlot;
    open_deliveries = 0;
    open_direct = 0;
  }
};

double check_margin_to_measured(std::uint64_t slots, std::uint64_t floor) {
  return static_cast<double>(slots) - static_cast<double>(floor);
}

}  // namespace

TraceAnalysis analyze_trace(std::span<const sim::TraceEvent> events,
                            const TraceAnalysisOptions& options) {
  TraceAnalysis out;
  out.options = options;

  std::map<PacketId, PacketBuild> packets;
  // The source's transmission log, in slot order: (slot, packet). Used for
  // the waterfall's blocking decomposition.
  std::vector<std::pair<SlotIndex, PacketId>> source_tx;
  NodeId max_node = options.source;

  for (const sim::TraceEvent& ev : events) {
    switch (ev.kind) {
      case sim::TraceEvent::Kind::kSlotBegin:
        break;  // analysis needs causality, not the wakeup schedule.
      case sim::TraceEvent::Kind::kGenerate: {
        PacketBuild& pb = packets[ev.packet];
        pb.tree.packet = ev.packet;
        LDCF_REQUIRE(pb.tree.generated_at == kNeverSlot,
                     "trace generates packet " + std::to_string(ev.packet) +
                         " twice");
        pb.tree.generated_at = ev.slot;
        if (pb.tree.holders.empty()) pb.tree.holders.push_back(1);
        break;
      }
      case sim::TraceEvent::Kind::kTx: {
        PacketBuild& pb = packets[ev.packet];
        pb.tree.packet = ev.packet;
        if (pb.tree.first_tx_at == kNeverSlot) pb.tree.first_tx_at = ev.slot;
        if (ev.sender == options.source) {
          source_tx.emplace_back(ev.slot, ev.packet);
        }
        max_node = std::max(max_node, ev.sender);
        if (ev.receiver != kNoNode) max_node = std::max(max_node, ev.receiver);
        out.channel.record(ev.outcome, ev.duplicate);
        break;
      }
      case sim::TraceEvent::Kind::kDelivery: {
        PacketBuild& pb = packets[ev.packet];
        pb.tree.packet = ev.packet;
        if (pb.tree.holders.empty()) pb.tree.holders.push_back(1);
        LDCF_REQUIRE(ev.node != options.source,
                     "trace delivers a packet to its source");
        LDCF_REQUIRE(!pb.depth_by_node.contains(ev.node),
                     "trace delivers packet " + std::to_string(ev.packet) +
                         " to node " + std::to_string(ev.node) + " twice");
        std::uint32_t parent_depth = 0;
        if (ev.from != options.source) {
          const auto parent = pb.depth_by_node.find(ev.from);
          LDCF_REQUIRE(parent != pb.depth_by_node.end(),
                       "trace delivery of packet " +
                           std::to_string(ev.packet) + " from node " +
                           std::to_string(ev.from) +
                           ", which never obtained it");
          parent_depth = parent->second;
        }
        if (ev.slot != pb.open_slot) {
          pb.close_slot();
          pb.open_slot = ev.slot;
        }
        ++pb.open_deliveries;
        if (!ev.overheard) ++pb.open_direct;
        TreeEdge edge;
        edge.node = ev.node;
        edge.parent = ev.from;
        edge.slot = ev.slot;
        edge.depth = parent_depth + 1;
        edge.overheard = ev.overheard;
        pb.depth_by_node.emplace(ev.node, edge.depth);
        pb.tree.edges.push_back(edge);
        max_node = std::max({max_node, ev.node, ev.from});
        ++out.total_deliveries;
        if (ev.overheard) ++out.channel.overhear_deliveries;
        break;
      }
      case sim::TraceEvent::Kind::kCovered: {
        PacketBuild& pb = packets[ev.packet];
        pb.tree.packet = ev.packet;
        pb.tree.covered_at = ev.slot;
        break;
      }
      case sim::TraceEvent::Kind::kRunEnd:
        out.has_run_end = true;
        out.end_slot = ev.end_slot;
        out.all_covered = ev.all_covered;
        out.truncated = ev.truncated;
        break;
    }
  }

  // Finalize trees: close the last dissemination slot and derive the
  // depth/growth summaries.
  out.trees.reserve(packets.size());
  for (auto& [packet, pb] : packets) {
    pb.close_slot();
    DisseminationTree& tree = pb.tree;
    if (tree.holders.empty()) tree.holders.push_back(1);
    tree.dissemination_slots = tree.holders.size() - 1;
    tree.max_growth = 0.0;
    for (std::size_t c = 1; c < tree.holders.size(); ++c) {
      // Lemma 1's recruitment ratio: direct deliveries only. Overheard
      // copies still enter the holder base (they retransmit later), but a
      // promiscuous decode is not a unicast recruit.
      const double growth =
          static_cast<double>(tree.holders[c - 1] + pb.direct_new[c - 1]) /
          static_cast<double>(tree.holders[c - 1]);
      tree.max_growth = std::max(tree.max_growth, growth);
    }
    tree.mean_growth =
        tree.dissemination_slots == 0
            ? 0.0
            : std::pow(static_cast<double>(tree.holders.back()),
                       1.0 / static_cast<double>(tree.dissemination_slots));
    tree.max_depth = 0;
    for (const TreeEdge& edge : tree.edges) {
      tree.max_depth = std::max(tree.max_depth, edge.depth);
    }
    tree.nodes_per_depth.assign(tree.max_depth + 1, 0);
    tree.nodes_per_depth[0] = 1;  // the source.
    for (const TreeEdge& edge : tree.edges) {
      ++tree.nodes_per_depth[edge.depth];
    }
    out.trees.push_back(std::move(tree));
  }

  // Waterfalls: decompose each packet's waiting window against the source's
  // transmission log (already in slot order; the source sends at most one
  // intent per slot, so each log entry is one distinct busy slot).
  out.waterfalls.reserve(out.trees.size());
  for (const DisseminationTree& tree : out.trees) {
    DelayWaterfall wf;
    wf.packet = tree.packet;
    wf.covered = tree.covered();
    if (tree.generated_at != kNeverSlot && tree.first_tx_at != kNeverSlot &&
        tree.first_tx_at >= tree.generated_at) {
      const auto begin = std::lower_bound(
          source_tx.begin(), source_tx.end(),
          std::pair<SlotIndex, PacketId>{tree.generated_at, 0});
      const auto end = std::lower_bound(
          source_tx.begin(), source_tx.end(),
          std::pair<SlotIndex, PacketId>{tree.first_tx_at, 0});
      std::uint64_t busy_slots = 0;
      std::vector<PacketId> earlier;
      for (auto it = begin; it != end; ++it) {
        if (it->second == tree.packet) continue;
        ++busy_slots;
        if (it->second < tree.packet) earlier.push_back(it->second);
      }
      std::sort(earlier.begin(), earlier.end());
      earlier.erase(std::unique(earlier.begin(), earlier.end()),
                    earlier.end());
      wf.blocking_depth = earlier.size();
      const std::uint64_t waiting = tree.first_tx_at - tree.generated_at;
      wf.blocking = std::min(busy_slots, waiting);
      wf.queueing = waiting - wf.blocking;
      if (tree.covered() && tree.covered_at >= tree.first_tx_at) {
        wf.transmission = tree.covered_at - tree.first_tx_at;
        wf.total = wf.queueing + wf.blocking + wf.transmission;
      }
    }
    out.waterfalls.push_back(wf);
  }

  // Run-level FDL: last coverage minus first generation.
  SlotIndex first_gen = kNeverSlot;
  SlotIndex last_cover = 0;
  bool any_cover = false;
  for (const DisseminationTree& tree : out.trees) {
    if (tree.generated_at != kNeverSlot) {
      first_gen = std::min(first_gen, tree.generated_at);
    }
    if (tree.covered()) {
      last_cover = std::max(last_cover, tree.covered_at);
      any_cover = true;
    }
  }
  if (any_cover && first_gen != kNeverSlot && last_cover >= first_gen) {
    out.measured_fdl = last_cover - first_gen;
  }

  // Resolve N: node ids are 0..N with the source at options.source, so the
  // largest id seen is N once the flood touched the farthest sensor.
  if (out.options.num_sensors == 0) {
    out.options.num_sensors = max_node;
    out.sensors_derived = true;
  }

  // -------------------------------------------------------------------------
  // Conformance checks.
  const std::uint64_t n = out.options.num_sensors;
  const bool unicast = out.channel.broadcasts == 0;
  const std::uint64_t num_packets = out.trees.size();

  {
    // Lemma 1/2 premise: unicast holders at most double per dissemination
    // slot (every holder recruits at most one new holder), so the maximum
    // single-slot growth factor is 2.
    ConformanceCheck check;
    check.name = "lemma12.gw_growth";
    check.lower = -kInf;
    check.upper = 2.0;
    bool any_growth = false;
    PacketId worst = kNoPacket;
    for (const DisseminationTree& tree : out.trees) {
      if (tree.dissemination_slots == 0) continue;
      any_growth = true;
      if (tree.max_growth > check.measured) {
        check.measured = tree.max_growth;
        worst = tree.packet;
      }
    }
    check.applicable = unicast && any_growth;
    check.pass = check.measured <= check.upper + kGrowthEps;
    if (!check.applicable) {
      check.detail = unicast ? "no dissemination observed"
                             : "broadcast transmissions void the unicast "
                               "growth model";
    } else {
      check.detail = "max holder growth " + std::to_string(check.measured) +
                     "x per slot (packet " + std::to_string(worst) +
                     "); unicast bound 2x";
    }
    out.conformance.checks.push_back(std::move(check));
  }

  {
    // Lemma 2 floor: reaching 1 + deliveries holders from 1 needs at least
    // ceil(log2(1 + deliveries)) dissemination slots under unicast growth.
    // measured = worst margin (slots used minus floor), pass iff >= 0.
    ConformanceCheck check;
    check.name = "lemma2.fwl_floor";
    check.lower = 0.0;
    check.upper = kInf;
    check.measured = kInf;
    bool any = false;
    PacketId worst = kNoPacket;
    for (const DisseminationTree& tree : out.trees) {
      if (tree.deliveries() == 0) continue;
      any = true;
      const double margin = check_margin_to_measured(
          tree.dissemination_slots, ceil_log2(1 + tree.deliveries()));
      if (margin < check.measured) {
        check.measured = margin;
        worst = tree.packet;
      }
    }
    check.applicable = unicast && any;
    check.pass = !check.applicable || check.measured >= 0.0;
    if (!check.applicable) {
      check.detail = unicast ? "no deliveries observed"
                             : "broadcast transmissions void the unicast "
                               "growth model";
      check.measured = 0.0;
    } else {
      check.detail =
          "worst packet (" + std::to_string(worst) + ") used " +
          std::to_string(static_cast<std::int64_t>(check.measured)) +
          " dissemination slots above the ceil(log2(1+deliveries)) floor";
    }
    out.conformance.checks.push_back(std::move(check));
  }

  {
    // Corollary 1: a packet's delay is affected by at most the m - 1
    // packets immediately before it. The corollary's pipelining argument
    // assumes packets enter the source at most one per compact slot (one
    // duty period); a burst of generations on the compact scale can
    // legitimately stack deeper, so the check gates on the observed
    // generation spacing.
    ConformanceCheck check;
    check.name = "corollary1.blocking_depth";
    check.lower = -kInf;
    SlotIndex min_gap = kNeverSlot;
    SlotIndex prev_gen = kNeverSlot;
    for (const DisseminationTree& tree : out.trees) {  // ascending packet id.
      if (tree.generated_at == kNeverSlot) continue;
      if (prev_gen != kNeverSlot && tree.generated_at >= prev_gen) {
        min_gap = std::min(min_gap, tree.generated_at - prev_gen);
      }
      prev_gen = tree.generated_at;
    }
    const bool spaced = min_gap != kNeverSlot &&
                        min_gap >= SlotIndex{out.options.duty_period};
    check.applicable = n >= 1 && num_packets >= 2 &&
                       out.options.duty_period >= 1 && spaced;
    check.upper =
        check.applicable ? static_cast<double>(theory::blocking_window(n))
                         : kInf;
    PacketId worst = kNoPacket;
    for (const DelayWaterfall& wf : out.waterfalls) {
      if (static_cast<double>(wf.blocking_depth) > check.measured ||
          worst == kNoPacket) {
        check.measured = static_cast<double>(wf.blocking_depth);
        worst = wf.packet;
      }
    }
    check.pass = !check.applicable || check.measured <= check.upper;
    if (check.applicable) {
      check.detail =
          "max " +
          std::to_string(static_cast<std::uint64_t>(check.measured)) +
          " distinct earlier packets blocked one packet (packet " +
          std::to_string(worst) + "); Corollary 1 window m-1 = " +
          std::to_string(theory::blocking_window(n));
    } else if (n >= 1 && num_packets >= 2 && out.options.duty_period >= 1) {
      check.detail = "generation burst (min gap " +
                     (min_gap == kNeverSlot ? std::string("none")
                                            : std::to_string(min_gap)) +
                     " < period " +
                     std::to_string(out.options.duty_period) +
                     ") voids the one-arrival-per-compact-slot premise";
    } else {
      check.detail = "needs N, the duty period T and at least two packets";
    }
    out.conformance.checks.push_back(std::move(check));
  }

  {
    // Theorem 2: the run's overall FDL against the E[FDL] envelope.
    ConformanceCheck check;
    check.name = "theorem2.fdl_envelope";
    const bool fully_covered =
        !out.trees.empty() &&
        std::all_of(out.trees.begin(), out.trees.end(),
                    [](const DisseminationTree& t) { return t.covered(); });
    check.applicable =
        n >= 1 && out.options.duty_period >= 1 && num_packets >= 1 &&
        fully_covered;
    check.measured = static_cast<double>(out.measured_fdl);
    if (check.applicable) {
      const theory::FdlBounds bounds = theory::expected_fdl_bounds(
          n, num_packets, DutyCycle{out.options.duty_period});
      check.lower = bounds.lower * (1.0 - out.options.fdl_slack);
      check.upper = bounds.upper * (1.0 + out.options.fdl_slack);
      // Only exceeding the upper bound is a violation: the envelope bounds
      // an expectation, so a single run finishing below the lower bound
      // (overhearing, lucky schedules) is consistent with Theorem 2 —
      // while a run above the upper bound has delay the reliable-link
      // theory cannot explain.
      check.pass = check.measured <= check.upper;
      check.detail = "measured FDL " +
                     std::to_string(out.measured_fdl) + " slots vs envelope [" +
                     std::to_string(check.lower) + ", " +
                     std::to_string(check.upper) + "]" +
                     (check.measured < check.lower
                          ? " (faster than the expectation's lower bound: ok)"
                          : "");
    } else {
      check.lower = -kInf;
      check.upper = kInf;
      check.pass = true;
      check.detail = fully_covered
                         ? "needs N and the duty period T"
                         : "run did not cover every packet";
    }
    out.conformance.checks.push_back(std::move(check));
  }

  return out;
}

TraceAnalysis analyze_trace_file(const std::string& path,
                                 const TraceAnalysisOptions& options) {
  const std::vector<sim::TraceEvent> events =
      sim::read_event_trace_file(path);
  return analyze_trace(events, options);
}

// ---------------------------------------------------------------------------
// Graphviz export

void write_tree_dot(std::ostream& out, const DisseminationTree& tree) {
  out << "digraph packet_" << tree.packet << " {\n";
  out << "  label=\"packet " << tree.packet << ": " << tree.deliveries()
      << " deliveries, depth " << tree.max_depth << ", "
      << tree.dissemination_slots << " dissemination slots\";\n";
  out << "  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  // The source: every edge chain roots here.
  NodeId source = kNoNode;
  for (const TreeEdge& edge : tree.edges) {
    if (edge.depth == 1) {
      source = edge.parent;
      break;
    }
  }
  if (source != kNoNode) {
    out << "  n" << source << " [shape=doublecircle, label=\"" << source
        << "\\nsource\"];\n";
  }
  for (const TreeEdge& edge : tree.edges) {
    out << "  n" << edge.parent << " -> n" << edge.node << " [label=\""
        << edge.slot << "\"";
    if (edge.overheard) out << ", style=dashed";
    out << "];\n";
  }
  // Rank nodes by hop depth so the rendering shows the wavefront.
  std::map<std::uint32_t, std::vector<NodeId>> by_depth;
  for (const TreeEdge& edge : tree.edges) {
    by_depth[edge.depth].push_back(edge.node);
  }
  for (const auto& [depth, nodes] : by_depth) {
    out << "  { rank=same;";
    for (const NodeId node : nodes) out << " n" << node << ";";
    out << " }\n";
  }
  out << "}\n";
}

void write_tree_dot_file(const std::string& path,
                         const DisseminationTree& tree) {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_tree_dot(out, tree); });
}

// ---------------------------------------------------------------------------
// JSON report

namespace {

void write_slot_or_null(JsonWriter& json, std::string_view key,
                        SlotIndex slot) {
  json.key(key);
  if (slot == kNeverSlot) {
    json.null();
  } else {
    json.value(slot);
  }
}

void write_bound_or_null(JsonWriter& json, std::string_view key,
                         double bound) {
  json.key(key);
  json.value(bound);  // non-finite bounds serialize as null.
}

void write_tree_json(JsonWriter& json, const DisseminationTree& tree,
                     const DelayWaterfall& wf) {
  json.begin_object().field("packet", tree.packet);
  write_slot_or_null(json, "generated_at", tree.generated_at);
  write_slot_or_null(json, "first_tx_at", tree.first_tx_at);
  write_slot_or_null(json, "covered_at", tree.covered_at);
  json.field("deliveries", tree.deliveries())
      .field("max_depth", tree.max_depth)
      .field("dissemination_slots", tree.dissemination_slots)
      .field("mean_growth", tree.mean_growth)
      .field("max_growth", tree.max_growth);
  json.key("nodes_per_depth").begin_array();
  for (const std::uint64_t count : tree.nodes_per_depth) json.value(count);
  json.end_array();
  json.key("holders").begin_array();
  for (const std::uint64_t count : tree.holders) json.value(count);
  json.end_array();
  json.key("waterfall")
      .begin_object()
      .field("covered", wf.covered)
      .field("queueing", wf.queueing)
      .field("blocking", wf.blocking)
      .field("transmission", wf.transmission)
      .field("total", wf.total)
      .field("blocking_depth", wf.blocking_depth)
      .end_object();
  json.end_object();
}

}  // namespace

void write_trace_analysis_report(std::ostream& out,
                                 const TraceAnalysisReportContext& context) {
  LDCF_REQUIRE(context.analysis != nullptr, "trace analysis report needs an "
                                            "analysis");
  const TraceAnalysis& a = *context.analysis;
  JsonWriter json(out);
  json.begin_object()
      .field("schema", "ldcf.trace_analysis.v1")
      .field("tool", context.tool)
      .field("trace", context.trace_path);
  json.key("provenance");
  write_provenance(json, Provenance::current());
  json.key("params")
      .begin_object()
      .field("num_sensors", a.options.num_sensors)
      .field("sensors_derived", a.sensors_derived)
      .field("duty_period", a.options.duty_period)
      .field("source", a.options.source)
      .field("fdl_slack", a.options.fdl_slack)
      .end_object();
  json.key("run")
      .begin_object()
      .field("has_run_end", a.has_run_end)
      .field("end_slot", a.end_slot)
      .field("all_covered", a.all_covered)
      .field("truncated", a.truncated)
      .field("num_packets", static_cast<std::uint64_t>(a.trees.size()))
      .field("measured_fdl", a.measured_fdl)
      .field("total_deliveries", a.total_deliveries)
      .field("deliveries_overheard", a.channel.overhear_deliveries)
      .end_object();
  json.key("channel").begin_object();
  write_channel_outcomes(json, a.channel);
  json.end_object();
  json.key("packets").begin_array();
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    write_tree_json(json, a.trees[i], a.waterfalls[i]);
  }
  json.end_array();
  json.key("conformance")
      .begin_object()
      .field("violations", a.conformance.violations())
      .field("conformant", a.conformance.conformant());
  json.key("checks").begin_array();
  for (const ConformanceCheck& check : a.conformance.checks) {
    json.begin_object()
        .field("name", check.name)
        .field("applicable", check.applicable)
        .field("pass", check.pass)
        .field("measured", check.measured);
    write_bound_or_null(json, "lower", check.lower);
    write_bound_or_null(json, "upper", check.upper);
    json.field("detail", check.detail).end_object();
  }
  json.end_array().end_object();
  json.end_object();
  out << '\n';
}

void write_trace_analysis_report_file(
    const std::string& path, const TraceAnalysisReportContext& context) {
  write_file_atomic(path, [&](std::ostream& out) {
    write_trace_analysis_report(out, context);
  });
}

// ---------------------------------------------------------------------------
// Text rendering

void print_trace_analysis(std::ostream& out, const TraceAnalysis& analysis) {
  out << "trace analysis: " << analysis.trees.size() << " packets, "
      << analysis.total_deliveries << " deliveries, "
      << analysis.channel.attempts << " transmission attempts";
  if (analysis.has_run_end) {
    out << ", end slot " << analysis.end_slot
        << (analysis.truncated ? " (truncated)" : "");
  }
  out << "\n";
  out << "  N = " << analysis.options.num_sensors
      << (analysis.sensors_derived ? " (derived from trace)" : "");
  if (analysis.options.duty_period >= 1) {
    out << ", T = " << analysis.options.duty_period;
  }
  out << ", measured FDL = " << analysis.measured_fdl << " slots\n\n";

  out << "  packet   queueing  blocking  transmit     total  depth  "
         "diss.slots  blockers\n";
  for (std::size_t i = 0; i < analysis.trees.size(); ++i) {
    const DisseminationTree& tree = analysis.trees[i];
    const DelayWaterfall& wf = analysis.waterfalls[i];
    char line[128];
    std::snprintf(line, sizeof(line),
                  "  %6u %10llu %9llu %9llu %9llu %6u %11llu %9llu%s\n",
                  tree.packet,
                  static_cast<unsigned long long>(wf.queueing),
                  static_cast<unsigned long long>(wf.blocking),
                  static_cast<unsigned long long>(wf.transmission),
                  static_cast<unsigned long long>(wf.total),
                  tree.max_depth,
                  static_cast<unsigned long long>(tree.dissemination_slots),
                  static_cast<unsigned long long>(wf.blocking_depth),
                  wf.covered ? "" : "  (never covered)");
    out << line;
  }

  out << "\n  conformance: " << analysis.conformance.violations()
      << " violation(s)\n";
  for (const ConformanceCheck& check : analysis.conformance.checks) {
    const char* verdict = !check.applicable ? "n/a "
                          : check.pass      ? "pass"
                                            : "VIOLATION";
    out << "    [" << verdict << "] " << check.name << ": " << check.detail
        << "\n";
  }
}

}  // namespace ldcf::obs
