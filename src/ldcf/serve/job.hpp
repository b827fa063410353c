// Job requests for the sweep service.
//
// A job is one sweep point — an ExperimentConfig-shaped description of
// (topology, protocol, duty, repetitions) — submitted as the "config"
// object of a {"op":"submit"} NDJSON frame. Its keys are option-table rows
// sharing their ranges with the CLI flags (analysis/knobs.hpp). Unknown
// keys, wrong JSON kinds, malformed numbers and out-of-range values are
// rejected before any work is queued, so a typo'd "sensor" never silently
// runs the default network.
//
// Every job has a canonical single-line JSON rendering (fixed key order,
// defaults filled in). The FNV-1a fingerprint of that rendering is the
// job's content key: two submissions describing the same experiment hash
// identically however sparse their original frames were, which is what the
// artifact cache and the report memoizer key on.
#pragma once

#include <cstdint>
#include <string>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/obs/json_reader.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::serve {

/// Per-spec ceilings on what one job may ask for.
inline constexpr std::uint32_t kMaxJobSensors = 100'000;
inline constexpr std::uint32_t kMaxJobPackets = 10'000;
/// Admission ceiling on job_cells: the server rejects larger jobs with
/// `job_too_large` before queueing them.
inline constexpr std::uint64_t kMaxJobCells = std::uint64_t{1} << 24;

/// One sweep-point request. The defaults are part of every fingerprint and
/// differ from flood_sim's (dbao, 298 sensors, 100 packets, seed 7).
struct JobSpec {
  std::string protocol = "naive";
  std::string generator = "clustered";  ///< clustered|uniform|grid|disk.
  std::uint32_t sensors = 60;
  std::uint64_t topology_seed = 1;
  double duty_pct = 5.0;
  std::uint32_t slots_per_period = 1;
  std::uint32_t num_packets = 20;
  std::uint32_t packet_spacing = 1;
  std::uint64_t seed = 1;
  std::uint64_t max_slots = 10'000'000;
  double coverage_fraction = 0.99;
  std::uint32_t reps = 1;
  std::uint32_t threads = 1;
  bool collect_stats = false;
};

/// Parse and validate the "config" object of a submit frame. Throws
/// InvalidArgument ("bad <key>: '<value>' (<why>)") on unknown keys, wrong
/// JSON kinds, malformed numbers (strict common/parse rules) or
/// out-of-range values.
[[nodiscard]] JobSpec parse_job_spec(const obs::JsonValue& config);

/// Canonical single-line JSON for the spec: every field, fixed order.
[[nodiscard]] std::string canonical_spec_json(const JobSpec& spec);

/// Content fingerprint: FNV-1a over canonical_spec_json. Identical
/// experiments fingerprint identically regardless of which defaults the
/// client spelled out.
[[nodiscard]] std::uint64_t spec_fingerprint(const JobSpec& spec);

/// Cache key for the spec's topology: only the fields the generator
/// consumes (generator, sensors, topology_seed).
[[nodiscard]] std::uint64_t topology_key(const JobSpec& spec);

/// Build the spec's topology (deterministic in topology_key inputs):
/// topology::make_network, the same network `flood_sim --sensors` builds.
[[nodiscard]] topology::Topology build_topology(const JobSpec& spec);

/// The spec as an ExperimentConfig. Profiling is forced off — stage
/// timings are wall-clock noise, and the service promises byte-identical
/// reports for identical jobs.
[[nodiscard]] analysis::ExperimentConfig make_experiment(const JobSpec& spec);

/// The spec's duty cycle (duty_pct as a ratio).
[[nodiscard]] DutyCycle spec_duty(const JobSpec& spec);

/// (sensors + 1) x max(T, num_packets): the size of the job's largest
/// per-node tables (the N x T pending buckets, the N x M possession
/// bits), which is what one job's memory grows with.
[[nodiscard]] std::uint64_t job_cells(const JobSpec& spec);

}  // namespace ldcf::serve
