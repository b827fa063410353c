// Provenance-stamped JSON sweep reports.
//
// The sweep-side companion of obs/report.hpp: serializes the outcome of
// run_point / run_duty_sweep — every ProtocolPoint with its scalar
// aggregates, merged telemetry registry (delay/energy histograms summed
// across repetitions), and aggregated stage-profiler timings — under the
// same provenance stamp as single-run reports.
//
// Schema (`ldcf.sweep_report.v2`): top-level keys `schema`, `tool`,
// `provenance`, `config` (base SimConfig + repetitions/threads),
// `topology`, `truncated_trials`, and `points` (array; each point carries
// `protocol`, `duty_ratio`, the ProtocolPoint scalars, `profiler`, and
// `metrics`).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"

namespace ldcf::analysis {

struct SweepReportContext {
  std::string tool;  ///< e.g. "run_duty_sweep", "protocol_comparison".
  const topology::Topology* topo = nullptr;
  const ExperimentConfig* config = nullptr;
  const std::vector<ProtocolPoint>* points = nullptr;
  double wall_seconds = 0.0;  ///< end-to-end sweep wall time (0 = unknown).
};

/// Serialize a complete `ldcf.sweep_report.v2` document.
void write_sweep_report(std::ostream& out, const SweepReportContext& context);

/// File variant; throws InvalidArgument if `path` cannot be opened.
void write_sweep_report_file(const std::string& path,
                             const SweepReportContext& context);

}  // namespace ldcf::analysis
