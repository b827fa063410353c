#include "ldcf/analysis/report.hpp"

#include <ostream>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/report.hpp"

namespace ldcf::analysis {

namespace {

// Interpolated delay percentiles from the point's merged delay.* histograms
// (exact cross-trial merges, see histogram.hpp). Written only when the
// sweep collected stats — the histograms do not exist otherwise.
void write_delay_quantiles(obs::JsonWriter& json, const ProtocolPoint& point) {
  const auto& histograms = point.metrics.histograms();
  json.key("delay_quantiles").begin_object();
  for (const auto& [name, histogram] : histograms) {
    if (name.rfind("delay.", 0) != 0 || histogram.count() == 0) continue;
    json.key(name)
        .begin_object()
        .field("p50", histogram.quantile_interp(0.50))
        .field("p90", histogram.quantile_interp(0.90))
        .field("p99", histogram.quantile_interp(0.99))
        .end_object();
  }
  json.end_object();
}

void write_point(obs::JsonWriter& json, const ProtocolPoint& point) {
  json.begin_object()
      .field("protocol", point.protocol)
      .field("duty_ratio", point.duty_ratio)
      .field("mean_delay", point.mean_delay)
      .field("delay_stddev", point.delay_stddev)
      .field("mean_queueing_delay", point.mean_queueing_delay)
      .field("mean_transmission_delay", point.mean_transmission_delay)
      .field("failures", point.failures)
      .field("attempts", point.attempts)
      .field("duplicates", point.duplicates)
      .field("energy_total", point.energy_total)
      .field("lifetime_slots", point.lifetime_slots)
      .field("all_covered", point.all_covered)
      .field("truncated", point.truncated)
      .field("truncated_trials", point.truncated_trials)
      .field("violating_trials", point.violating_trials);
  write_delay_quantiles(json, point);
  json.key("profiler");
  obs::write_stage_profile(json, point.profile);
  json.key("metrics");
  obs::write_registry(json, point.metrics);
  // Windowed telemetry rides along only when the sweep collected it
  // (ExperimentConfig::trial.collect_series); the sections use the same
  // bodies as the standalone ldcf.timeseries.v1 / ldcf.netmap.v1 artifacts.
  if (!point.timeseries.empty()) {
    json.key("timeseries");
    obs::write_timeseries(json, point.timeseries);
  }
  if (!point.netmap.empty()) {
    json.key("netmap");
    obs::write_netmap(json, point.netmap);
  }
  json.end_object();
}

}  // namespace

void write_sweep_report(std::ostream& out,
                        const SweepReportContext& context) {
  LDCF_REQUIRE(context.topo != nullptr && context.config != nullptr &&
                   context.points != nullptr,
               "sweep report needs topology, config and points");
  obs::JsonWriter json(out);
  json.begin_object()
      .field("schema", "ldcf.sweep_report.v2")
      .field("tool", context.tool);
  json.key("provenance");
  obs::write_provenance(json, obs::Provenance::current());
  json.field("wall_seconds", context.wall_seconds);
  json.key("config").begin_object();
  json.key("base");
  obs::write_sim_config(json, context.config->base);
  json.field("repetitions", context.config->repetitions)
      .field("threads", context.config->threads)
      .end_object();
  json.key("topology");
  obs::write_topology_summary(json, *context.topo);
  std::uint64_t truncated = 0;
  for (const ProtocolPoint& point : *context.points) {
    truncated += point.truncated_trials;
  }
  json.field("truncated_trials", truncated);
  json.key("points").begin_array();
  for (const ProtocolPoint& point : *context.points) {
    write_point(json, point);
  }
  json.end_array().end_object();
  out << '\n';
}

void write_sweep_report_file(const std::string& path,
                             const SweepReportContext& context) {
  obs::write_file_atomic(
      path, [&](std::ostream& out) { write_sweep_report(out, context); });
}

}  // namespace ldcf::analysis
