// Provenance-stamped JSON run reports.
//
// A run report is the machine-readable record of one simulation (or bench)
// run: enough provenance to reproduce it (git SHA, build type/flags,
// compiler, seed, config, topology fingerprint), the scalar results, the
// stage-profiler timings, and every registry metric including full
// histogram payloads — which is what lets a few lines of jq extract a
// delay CDF and check it against Theorems 1-2 (EXPERIMENTS.md shows how).
//
// The JSON plumbing (JsonWriter) lives in obs/json_writer.hpp so that
// telemetry-core code (the timeline) can serialize without depending on
// sim/.
//
// Schema (`ldcf.run_report.v2`): top-level keys `schema`, `tool`,
// `provenance`, `config`, `topology`, `result`, `profiler`, `metrics`.
// Histograms serialize sparsely: only non-empty bins, as
// {"lower": L, "count": C} at the histogram's final bin width; delay
// histograms additionally surface interpolated p50/p90/p99.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ldcf/obs/json_writer.hpp"
#include "ldcf/obs/registry.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::obs {

struct TimeSeries;  // obs/timeseries.hpp.
struct NetMap;      // obs/timeseries.hpp.

/// Build/environment provenance captured at compile time (CMake injects
/// the git SHA and flags into report.cpp; "unknown" when unavailable —
/// note the SHA is the one CMake saw at configure time).
struct Provenance {
  std::string git_sha;
  std::string build_type;
  std::string compiler;
  std::string cxx_flags;

  [[nodiscard]] static Provenance current();
};

// Report fragments, reusable by other report writers (sweep, bench): each
// writes one value (an object) — callers pair it with a key.
void write_provenance(JsonWriter& json, const Provenance& provenance);
void write_topology_summary(JsonWriter& json,
                            const topology::Topology& topo);
void write_sim_config(JsonWriter& json, const sim::SimConfig& config);
void write_histogram(JsonWriter& json, const Histogram& histogram);
void write_registry(JsonWriter& json, const MetricsRegistry& registry);
void write_stage_profile(JsonWriter& json, const sim::StageProfile& profile);
void write_run_result(JsonWriter& json, const sim::SimResult& result);
/// Write the tx-outcome fields of `channel` (attempts through sync_misses)
/// into the object being written.
void write_channel_outcomes(JsonWriter& json,
                            const sim::ChannelCounters& channel);

/// Everything one flood_sim-style run report needs.
struct RunReportContext {
  std::string tool;      ///< e.g. "flood_sim".
  std::string protocol;  ///< protocol registry name.
  const topology::Topology* topo = nullptr;
  const sim::SimConfig* config = nullptr;
  const sim::SimResult* result = nullptr;
  const MetricsRegistry* metrics = nullptr;  ///< optional.
  /// Optional windowed telemetry (obs/timeseries.hpp): embedded as
  /// "timeseries" / "netmap" sections using the same bodies as the
  /// standalone ldcf.timeseries.v1 / ldcf.netmap.v1 artifacts.
  const TimeSeries* timeseries = nullptr;
  const NetMap* netmap = nullptr;
  double wall_seconds = 0.0;  ///< end-to-end tool wall time.
};

/// Serialize a complete `ldcf.run_report.v2` document.
void write_run_report(std::ostream& out, const RunReportContext& context);

/// File variant; throws InvalidArgument if `path` cannot be opened.
void write_run_report_file(const std::string& path,
                           const RunReportContext& context);

}  // namespace ldcf::obs
