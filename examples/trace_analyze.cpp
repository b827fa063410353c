// trace_analyze — explain a recorded run: dissemination trees, delay
// waterfalls, and theory-conformance verdicts from a JSONL event trace
// (flood_sim --trace, protocol_comparison --trace, ExperimentConfig::
// trace_path).
//
// `trace_analyze --help` lists the options.
//
// Exit status: 0 = no conformance violations, 1 = violations detected,
// 2 = usage or input errors.
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ldcf/analysis/knobs.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/common/parse.hpp"
#include "ldcf/obs/trace_analysis.hpp"
#include "ldcf/topology/trace_io.hpp"

int run_cli(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "trace_analyze: " << e.what() << "\n";
    return 2;
  }
}

int run_cli(int argc, char** argv) {
  using namespace ldcf;

  std::string trace_path;
  std::string topo_path;
  std::string report_path;
  std::vector<std::pair<PacketId, std::string>> dot_requests;
  bool quiet = false;
  double duty_pct = 0.0;
  obs::TraceAnalysisOptions options;

  common::OptionTable cli("trace_analyze",
                          "Explain a run; --duty sets --period to 100/PCT.");
  const auto dot = [&](std::string_view spec) {
    const auto colon = spec.find(':');
    if (colon == spec.npos || colon == 0 || colon + 1 >= spec.size()) {
      common::reject("--dot", spec, "wants PKT:PATH");
    }
    dot_requests.emplace_back(
        common::parse_u32(spec.substr(0, colon), "--dot packet"),
        spec.substr(colon + 1));
  };
  cli.positional("TRACE", &trace_path, {"", "JSONL event trace"}, true)
      .add("--topo", &topo_path, {"FILE", "topology trace (supplies N)"})
      .add("--sensors", &options.num_sensors,
           {"N", "N when no --topo; 0 derives it from the trace"})
      .add("--period", &options.duty_period,
           {"T", "schedule period in slots, for the Theorem 2 envelope check; "
                 "0 = unknown"})
      .add("--duty", &duty_pct, analysis::knobs::duty_pct())
      .add("--source", &options.source, {"NODE", "flooding source node"})
      .add("--slack", &options.fdl_slack,
           {"F", "fractional slack widening the Theorem 2 envelope"})
      .add("--report", &report_path,
           {"PATH", "write an ldcf.trace_analysis.v1 JSON report"})
      .add("--dot", dot,
           {"PKT:PATH", "write packet PKT's dissemination tree as Graphviz "
                        "dot (repeatable)"})
      .add("--quiet", &quiet, {"", "suppress the text rendering"});
  cli.parse_or_exit(argc, argv);
  if (cli.seen("--duty")) {
    options.duty_period = DutyCycle::from_ratio(duty_pct / 100.0).period;
  }

  if (!topo_path.empty()) {
    const topology::Topology topo = topology::read_trace_file(topo_path);
    options.num_sensors = topo.num_sensors();
  }

  const obs::TraceAnalysis analysis =
      obs::analyze_trace_file(trace_path, options);

  if (!quiet) obs::print_trace_analysis(std::cout, analysis);

  for (const auto& [packet, path] : dot_requests) {
    const obs::DisseminationTree* tree = analysis.tree(packet);
    if (tree == nullptr) {
      cli.usage_error("--dot names packet " + std::to_string(packet) +
                      ", which the trace never mentions");
    }
    obs::write_tree_dot_file(path, *tree);
    if (!quiet) {
      std::cout << "wrote " << path << " (render: dot -Tsvg " << path
                << " > tree.svg)\n";
    }
  }

  if (!report_path.empty()) {
    obs::TraceAnalysisReportContext context;
    context.tool = "trace_analyze";
    context.trace_path = trace_path;
    context.analysis = &analysis;
    obs::write_trace_analysis_report_file(report_path, context);
    if (!quiet) std::cout << "wrote " << report_path << "\n";
  }

  return analysis.conformance.conformant() ? 0 : 1;
}
