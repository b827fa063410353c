#include "ldcf/obs/report.hpp"

#include <cmath>
#include <limits>
#include <ostream>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/timeseries.hpp"

// Injected by CMake onto this translation unit only (see src/CMakeLists.txt);
// keep fallbacks so the file also builds standalone.
#ifndef LDCF_GIT_SHA
#define LDCF_GIT_SHA "unknown"
#endif
#ifndef LDCF_BUILD_TYPE
#define LDCF_BUILD_TYPE "unknown"
#endif
#ifndef LDCF_COMPILER
#define LDCF_COMPILER "unknown"
#endif
#ifndef LDCF_CXX_FLAGS
#define LDCF_CXX_FLAGS ""
#endif

namespace ldcf::obs {

Provenance Provenance::current() {
  Provenance p;
  p.git_sha = LDCF_GIT_SHA;
  p.build_type = LDCF_BUILD_TYPE;
  p.compiler = LDCF_COMPILER;
  p.cxx_flags = LDCF_CXX_FLAGS;
  return p;
}

void write_provenance(JsonWriter& json, const Provenance& provenance) {
  json.begin_object()
      .field("git_sha", provenance.git_sha)
      .field("build_type", provenance.build_type)
      .field("compiler", provenance.compiler)
      .field("cxx_flags", provenance.cxx_flags)
      .end_object();
}

void write_topology_summary(JsonWriter& json,
                            const topology::Topology& topo) {
  json.begin_object()
      .field("nodes", static_cast<std::uint64_t>(topo.num_nodes()))
      .field("sensors", topo.num_sensors())
      .field("links", static_cast<std::uint64_t>(topo.num_links()))
      .field("mean_degree", topo.mean_degree())
      .field("mean_prr", topo.mean_prr())
      .field("fingerprint", topo.fingerprint())
      .end_object();
}

void write_sim_config(JsonWriter& json, const sim::SimConfig& config) {
  json.begin_object()
      .field("duty_period", config.duty.period)
      .field("duty_ratio", config.duty.ratio())
      .field("slots_per_period", config.slots_per_period)
      .field("source", config.source)
      .field("num_packets", config.num_packets)
      .field("packet_spacing", config.packet_spacing)
      .field("coverage_fraction", config.coverage_fraction)
      .field("seed", config.seed)
      .field("max_slots", config.max_slots)
      .field("capture_ratio", config.capture_ratio)
      .field("sync_miss_prob", config.sync_miss_prob)
      .field("profiling", config.profiling)
      .field("compact_time", config.compact_time)
      .field("channel_rng",
             config.channel_rng == sim::ChannelRngMode::kSlotKeyed
                 ? "slot_keyed"
                 : "sequential")
      .end_object();
}

void write_histogram(JsonWriter& json, const Histogram& histogram) {
  json.begin_object()
      .field("bin_width", histogram.bin_width())
      .field("count", histogram.count())
      .field("sum", histogram.sum())
      .field("mean", histogram.mean())
      .field("min", histogram.min())
      .field("max", histogram.max())
      .field("p50", histogram.quantile_interp(0.50))
      .field("p90", histogram.quantile_interp(0.90))
      .field("p99", histogram.quantile_interp(0.99));
  json.key("bins").begin_array();
  for (std::size_t bin = 0; bin < histogram.num_bins(); ++bin) {
    if (histogram.bin_count(bin) == 0) continue;
    json.begin_object()
        .field("lower", histogram.bin_lower(bin))
        .field("count", histogram.bin_count(bin))
        .end_object();
  }
  json.end_array().end_object();
}

void write_registry(JsonWriter& json, const MetricsRegistry& registry) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const auto& [name, counter] : registry.counters()) {
    json.field(name, counter.value());
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const auto& [name, histogram] : registry.histograms()) {
    json.key(name);
    write_histogram(json, histogram);
  }
  json.end_object();
  json.end_object();
}

void write_stage_profile(JsonWriter& json, const sim::StageProfile& profile) {
  json.begin_object()
      .field("enabled", profile.enabled)
      .field("slots", profile.slots)
      .field("slots_skipped", profile.slots_skipped)
      .field("gaps", profile.gaps)
      .field("wall_ns", profile.wall_ns)
      .field("slots_per_sec", profile.slots_per_sec())
      .field("total_stage_ns", profile.total_stage_ns());
  json.key("stages").begin_array();
  for (std::size_t s = 0; s < sim::kNumStages; ++s) {
    json.begin_object()
        .field("name", sim::kStageNames[s])
        .field("ns", profile.stage_ns[s])
        .field("share", profile.stage_share(static_cast<sim::Stage>(s)))
        .end_object();
  }
  json.end_array().end_object();
}

void write_channel_outcomes(JsonWriter& json,
                            const sim::ChannelCounters& channel) {
  json.field("attempts", channel.attempts)
      .field("delivered", channel.delivered)
      .field("duplicates", channel.duplicates)
      .field("losses", channel.losses)
      .field("collisions", channel.collisions)
      .field("receiver_busy", channel.receiver_busy)
      .field("broadcasts", channel.broadcasts)
      .field("sync_misses", channel.sync_misses);
}

void write_run_result(JsonWriter& json, const sim::SimResult& result) {
  const sim::RunMetrics& m = result.metrics;
  std::uint64_t covered_packets = 0;
  for (const sim::PacketRecord& rec : m.packets) {
    if (rec.covered()) ++covered_packets;
  }
  json.begin_object()
      .field("end_slot", m.end_slot)
      .field("all_covered", m.all_covered)
      .field("truncated", m.truncated)
      .field("coverage_target", m.coverage_target)
      .field("num_packets", static_cast<std::uint64_t>(m.packets.size()))
      .field("covered_packets", covered_packets)
      .field("covered_fraction", m.covered_fraction())
      .field("mean_total_delay", m.mean_total_delay())
      .field("mean_queueing_delay", m.mean_queueing_delay())
      .field("mean_transmission_delay", m.mean_transmission_delay())
      .field("max_total_delay", m.max_total_delay())
      .field("delay_p50", m.delay_quantile(0.5))
      .field("delay_p95", m.delay_quantile(0.95));
  json.key("channel").begin_object();
  write_channel_outcomes(json, m.channel);
  json.field("overhear_deliveries", m.channel.overhear_deliveries)
      .field("failures", m.channel.failures())
      .end_object();
  json.key("energy")
      .begin_object()
      .field("total", result.energy.total)
      .field("max_node", result.energy.max_node)
      .end_object();
  json.end_object();
}

void write_run_report(std::ostream& out, const RunReportContext& context) {
  LDCF_REQUIRE(context.topo != nullptr && context.config != nullptr &&
                   context.result != nullptr,
               "run report needs topology, config and result");
  JsonWriter json(out);
  json.begin_object()
      .field("schema", "ldcf.run_report.v2")
      .field("tool", context.tool)
      .field("protocol", context.protocol);
  json.key("provenance");
  write_provenance(json, Provenance::current());
  json.field("wall_seconds", context.wall_seconds);
  json.key("config");
  write_sim_config(json, *context.config);
  json.key("topology");
  write_topology_summary(json, *context.topo);
  json.key("result");
  write_run_result(json, *context.result);
  json.key("profiler");
  write_stage_profile(json, context.result->profile);
  if (context.metrics != nullptr) {
    json.key("metrics");
    write_registry(json, *context.metrics);
  }
  if (context.timeseries != nullptr) {
    json.key("timeseries");
    write_timeseries(json, *context.timeseries);
  }
  if (context.netmap != nullptr) {
    json.key("netmap");
    write_netmap(json, *context.netmap);
  }
  json.end_object();
  out << '\n';
}

void write_run_report_file(const std::string& path,
                           const RunReportContext& context) {
  write_file_atomic(path,
                    [&](std::ostream& out) { write_run_report(out, context); });
}

}  // namespace ldcf::obs
