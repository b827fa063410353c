// JobSpec parsing and fingerprinting (serve/job.hpp): strict request
// validation and the canonical-rendering fingerprint the cache keys on.
#include "ldcf/serve/job.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/json_reader.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using ldcf::InvalidArgument;
using ldcf::obs::parse_json;
using ldcf::serve::canonical_spec_json;
using ldcf::serve::JobSpec;
using ldcf::serve::parse_job_spec;
using ldcf::serve::spec_fingerprint;
using ldcf::serve::topology_key;

JobSpec parse(const std::string& json) {
  return parse_job_spec(*parse_json(json));
}

TEST(ParseJobSpec, EmptyObjectYieldsDefaults) {
  const JobSpec spec = parse("{}");
  const JobSpec defaults;
  EXPECT_EQ(spec.protocol, defaults.protocol);
  EXPECT_EQ(spec.generator, defaults.generator);
  EXPECT_EQ(spec.sensors, defaults.sensors);
  EXPECT_EQ(spec.reps, defaults.reps);
  EXPECT_EQ(canonical_spec_json(spec), canonical_spec_json(defaults));
}

TEST(ParseJobSpec, ReadsEveryField) {
  const JobSpec spec = parse(
      R"({"protocol":"opt","generator":"uniform","sensors":80,
          "topology_seed":9,"duty_pct":10.0,"slots_per_period":2,
          "num_packets":5,"packet_spacing":3,"seed":77,"max_slots":1000,
          "coverage_fraction":0.9,"reps":4,"threads":2,
          "collect_stats":true})");
  EXPECT_EQ(spec.protocol, "opt");
  EXPECT_EQ(spec.generator, "uniform");
  EXPECT_EQ(spec.sensors, 80u);
  EXPECT_EQ(spec.topology_seed, 9u);
  EXPECT_DOUBLE_EQ(spec.duty_pct, 10.0);
  EXPECT_EQ(spec.slots_per_period, 2u);
  EXPECT_EQ(spec.num_packets, 5u);
  EXPECT_EQ(spec.packet_spacing, 3u);
  EXPECT_EQ(spec.seed, 77u);
  EXPECT_EQ(spec.max_slots, 1000u);
  EXPECT_DOUBLE_EQ(spec.coverage_fraction, 0.9);
  EXPECT_EQ(spec.reps, 4u);
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_TRUE(spec.collect_stats);
}

TEST(ParseJobSpec, RejectsUnknownKeys) {
  // The reason strictness exists: "sensor" must not silently run the
  // default network.
  EXPECT_THROW((void)parse(R"({"sensor":500})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"Protocol":"opt"})"), InvalidArgument);
}

TEST(ParseJobSpec, RejectsBadValues) {
  EXPECT_THROW((void)parse(R"({"protocol":"bogus"})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"generator":"torus"})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"sensors":1})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"reps":0})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"reps":-1})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"duty_pct":0})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"duty_pct":150})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"coverage_fraction":1.5})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"collect_stats":"yes"})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"({"sensors":"sixty"})"), InvalidArgument);
  EXPECT_THROW((void)parse(R"([1,2,3])"), InvalidArgument);
}

TEST(ParseJobSpec, ErrorsNameTheKey) {
  const auto message = [](const std::string& json) -> std::string {
    try {
      (void)parse(json);
    } catch (const InvalidArgument& error) {
      return error.what();
    }
    return "no error";
  };
  EXPECT_EQ(message(R"({"sensor":500})"), "bad key: 'sensor' (unknown key)");
  EXPECT_EQ(message(R"({"sensors":1})"), "bad sensors: '1' (must be in [2, 100000])");
  EXPECT_EQ(message(R"({"duty_pct":0})"),
            "bad duty_pct: '0' (must be in [0.01, 100])");
  // A non-string or empty protocol used to fall back to the default
  // silently; now it is a wrong kind or a bad choice like any other key.
  EXPECT_EQ(message(R"({"protocol":3})"),
            "bad protocol: '3' (expected a string)");
  EXPECT_NE(message(R"({"protocol":""})").find("(must be one of "),
            std::string::npos);
}

TEST(ParseJobSpec, BoundsWhatOneJobMayAllocate) {
  const auto message = [](const std::string& json) -> std::string {
    try {
      (void)parse(json);
    } catch (const InvalidArgument& error) {
      return error.what();
    }
    return "no error";
  };
  // Below 0.01 % the period T = 100 / duty would pass 10,000 slots.
  EXPECT_EQ(message(R"({"duty_pct":0.001})"),
            "bad duty_pct: '0.001' (must be in [0.01, 100])");
  EXPECT_EQ(message(R"({"duty_pct":1e-300})"),
            "bad duty_pct: '1e-300' (must be in [0.01, 100])");
  EXPECT_EQ(message(R"({"sensors":100001})"),
            "bad sensors: '100001' (must be in [2, 100000])");
  EXPECT_EQ(message(R"({"num_packets":10001})"),
            "bad num_packets: '10001' (must be in [1, 10000])");
  // The ceilings themselves are accepted.
  EXPECT_EQ(ldcf::serve::spec_duty(parse(R"({"duty_pct":0.01})")).period,
            10'000u);
  EXPECT_EQ(parse(R"({"sensors":100000,"num_packets":10000})").sensors,
            100'000u);
}

TEST(ParseJobSpec, JobCellsCountTheLargestPerNodeTable) {
  // (sensors + 1) x max(T, M): the 5 % default has T = 20 = M.
  EXPECT_EQ(ldcf::serve::job_cells(parse("{}")), 61u * 20u);
  EXPECT_EQ(ldcf::serve::job_cells(parse(R"({"duty_pct":1})")), 61u * 100u);
  EXPECT_EQ(ldcf::serve::job_cells(parse(R"({"num_packets":500})")),
            61u * 500u);
  // serve_mix's largest spec sits far below the admission ceiling; the
  // largest spec the parser accepts sits far above it.
  EXPECT_LE(ldcf::serve::job_cells(parse(R"({"sensors":10000})")),
            ldcf::serve::kMaxJobCells);
  EXPECT_GT(ldcf::serve::job_cells(parse(
                R"({"sensors":100000,"duty_pct":0.01,"num_packets":10000})")),
            ldcf::serve::kMaxJobCells);
}

TEST(SpecFingerprint, SpelledOutDefaultsHashIdentically) {
  // A sparse frame and one spelling out the defaults describe the same
  // experiment, so they must share a fingerprint (and cache entries).
  const JobSpec sparse = parse(R"({"protocol":"opt"})");
  const JobSpec spelled = parse(
      R"({"protocol":"opt","generator":"clustered","sensors":60,
          "duty_pct":5.0,"reps":1,"seed":1})");
  EXPECT_EQ(spec_fingerprint(sparse), spec_fingerprint(spelled));
}

TEST(SpecFingerprint, DefaultSpecIdentityIsPinned) {
  // The canonical rendering and its fingerprint key every cached artifact
  // and report; a parser change must leave both byte-identical.
  EXPECT_EQ(canonical_spec_json(JobSpec{}),
            R"({"protocol":"naive","generator":"clustered","sensors":60,)"
            R"("topology_seed":1,"duty_pct":5,"slots_per_period":1,)"
            R"("num_packets":20,"packet_spacing":1,"seed":1,)"
            R"("max_slots":10000000,"coverage_fraction":0.98999999999999999,)"
            R"("reps":1,"collect_stats":false})");
  EXPECT_EQ(spec_fingerprint(JobSpec{}), 3937354300496746745ull);
  EXPECT_EQ(spec_fingerprint(parse("{}")), 3937354300496746745ull);
}

TEST(SpecFingerprint, ThreadsDoNotSplitTheFingerprint) {
  // The executor is bit-identical for every thread count, so thread count
  // is not part of the experiment's identity.
  const JobSpec one = parse(R"({"protocol":"opt","threads":1})");
  const JobSpec eight = parse(R"({"protocol":"opt","threads":8})");
  EXPECT_EQ(spec_fingerprint(one), spec_fingerprint(eight));
}

TEST(SpecFingerprint, ResultFieldsDoSplitIt) {
  const JobSpec base = parse("{}");
  for (const std::string frame :
       {R"({"seed":2})", R"({"reps":2})", R"({"duty_pct":10})",
        R"({"protocol":"opt"})", R"({"sensors":61})"}) {
    SCOPED_TRACE(frame);
    EXPECT_NE(spec_fingerprint(base), spec_fingerprint(parse(frame)));
  }
}

TEST(TopologyKey, DependsOnlyOnGeneratorInputs) {
  const JobSpec base = parse("{}");
  // Simulation-side fields share the topology.
  EXPECT_EQ(topology_key(base), topology_key(parse(R"({"seed":99})")));
  EXPECT_EQ(topology_key(base), topology_key(parse(R"({"protocol":"opt"})")));
  // Generator inputs split it.
  EXPECT_NE(topology_key(base), topology_key(parse(R"({"sensors":61})")));
  EXPECT_NE(topology_key(base),
            topology_key(parse(R"({"topology_seed":2})")));
  EXPECT_NE(topology_key(base),
            topology_key(parse(R"({"generator":"uniform"})")));
}

TEST(BuildTopology, IsDeterministicInItsKey) {
  const JobSpec spec = parse(R"({"generator":"uniform","sensors":30})");
  const ldcf::topology::Topology a = ldcf::serve::build_topology(spec);
  const ldcf::topology::Topology b = ldcf::serve::build_topology(spec);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_links(), b.num_links());
}

TEST(BuildTopology, SharesFloodSimsScaledGenerators) {
  // One generator name, one network: the server builds uniform, grid and
  // disk specs from the same constant-density config as flood_sim.
  for (const char* generator : {"uniform", "grid", "disk"}) {
    SCOPED_TRACE(generator);
    const JobSpec spec = parse(std::string(R"({"generator":")") + generator +
                               R"(","sensors":200,"topology_seed":3})");
    const ldcf::topology::GeneratorConfig config =
        ldcf::topology::scaled_generator_config(200, 3);
    const ldcf::topology::Topology expected =
        spec.generator == "uniform" ? ldcf::topology::make_uniform(config)
        : spec.generator == "grid"  ? ldcf::topology::make_grid(config)
                                    : ldcf::topology::make_uniform_disk(config);
    EXPECT_EQ(ldcf::serve::build_topology(spec).fingerprint(),
              expected.fingerprint());
  }
}

TEST(MakeExperiment, ForcesProfilingOff) {
  const JobSpec spec = parse(R"({"reps":3,"threads":2})");
  const ldcf::analysis::ExperimentConfig experiment =
      ldcf::serve::make_experiment(spec);
  EXPECT_FALSE(experiment.base.profiling);
  EXPECT_EQ(experiment.repetitions, 3u);
  EXPECT_EQ(experiment.threads, 2u);
}

}  // namespace
