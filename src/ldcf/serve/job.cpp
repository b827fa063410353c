#include "ldcf/serve/job.hpp"

#include <algorithm>
#include <sstream>

#include "ldcf/analysis/knobs.hpp"
#include "ldcf/common/math_utils.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/topology/generators.hpp"

namespace ldcf::serve {

JobSpec parse_job_spec(const obs::JsonValue& config) {
  JobSpec spec;
  common::OptionTable keys("config", "one sweep point");
  keys.add("protocol", &spec.protocol, analysis::knobs::protocol())
      .add("generator", &spec.generator, analysis::knobs::generator())
      .add("sensors", &spec.sensors,
           common::Knob("N", "").at_least(2).at_most(kMaxJobSensors))
      .add("topology_seed", &spec.topology_seed, {"S", "generator seed"})
      .add("duty_pct", &spec.duty_pct, analysis::knobs::duty_pct())
      .add("slots_per_period", &spec.slots_per_period,
           analysis::knobs::slots_per_period())
      .add("num_packets", &spec.num_packets,
           analysis::knobs::packets().at_most(kMaxJobPackets))
      .add("packet_spacing", &spec.packet_spacing, analysis::knobs::spacing())
      .add("seed", &spec.seed, {"S", "run seed"})
      .add("max_slots", &spec.max_slots, common::Knob("K", "").at_least(1))
      .add("coverage_fraction", &spec.coverage_fraction,
           analysis::knobs::coverage())
      .add("reps", &spec.reps, analysis::knobs::reps())
      .add("threads", &spec.threads, {"N", "0 = all cores"})
      .add("collect_stats", &spec.collect_stats, {"", "attach histograms"});
  keys.parse_json(config);
  return spec;
}

std::string canonical_spec_json(const JobSpec& spec) {
  std::ostringstream out;
  {
    obs::JsonWriter json(out);
    json.begin_object()
        .field("protocol", spec.protocol)
        .field("generator", spec.generator)
        .field("sensors", spec.sensors)
        .field("topology_seed", spec.topology_seed)
        .field("duty_pct", spec.duty_pct)
        .field("slots_per_period", spec.slots_per_period)
        .field("num_packets", spec.num_packets)
        .field("packet_spacing", spec.packet_spacing)
        .field("seed", spec.seed)
        .field("max_slots", spec.max_slots)
        .field("coverage_fraction", spec.coverage_fraction)
        .field("reps", spec.reps)
        .field("collect_stats", spec.collect_stats)
        .end_object();
  }
  // `threads` is deliberately absent: the executor is bit-identical for
  // every thread count, so it must not split the fingerprint.
  return out.str();
}

std::uint64_t spec_fingerprint(const JobSpec& spec) {
  const std::string canonical = canonical_spec_json(spec);
  return fnv1a(canonical.data(), canonical.size());
}

std::uint64_t topology_key(const JobSpec& spec) {
  std::uint64_t key = fnv1a(spec.generator.data(), spec.generator.size());
  key = fnv1a_mix(key, spec.sensors);
  key = fnv1a_mix(key, spec.topology_seed);
  return key;
}

topology::Topology build_topology(const JobSpec& spec) {
  return topology::make_network(spec.generator, spec.sensors,
                                spec.topology_seed);
}

analysis::ExperimentConfig make_experiment(const JobSpec& spec) {
  analysis::ExperimentConfig experiment;
  experiment.base.duty = spec_duty(spec);
  experiment.base.slots_per_period = spec.slots_per_period;
  experiment.base.num_packets = spec.num_packets;
  experiment.base.packet_spacing = spec.packet_spacing;
  experiment.base.seed = spec.seed;
  experiment.base.max_slots = spec.max_slots;
  experiment.base.coverage_fraction = spec.coverage_fraction;
  experiment.repetitions = spec.reps;
  experiment.threads = spec.threads;
  experiment.trial.collect_stats = spec.collect_stats;
  return experiment;
}

DutyCycle spec_duty(const JobSpec& spec) {
  return DutyCycle::from_ratio(spec.duty_pct / 100.0);
}

std::uint64_t job_cells(const JobSpec& spec) {
  const std::uint64_t width =
      std::max<std::uint64_t>(spec_duty(spec).period, spec.num_packets);
  return (std::uint64_t{spec.sensors} + 1) * width;
}

}  // namespace ldcf::serve
