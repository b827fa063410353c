#include "ldcf/obs/report.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

namespace ldcf::obs {
namespace {

// Structural JSON check: braces/brackets balance outside string literals
// and the document is one top-level value. Not a full parser, but it
// catches every comma/nesting bug the streaming writer could produce.
bool balanced_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool closed_top = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        if (closed_top) return false;
        ++depth;
        break;
      case '}':
      case ']':
        if (--depth < 0) return false;
        if (depth == 0) closed_top = true;
        break;
      case ',':
        if (depth == 0) return false;
        break;
      default:
        break;
    }
  }
  return depth == 0 && !in_string && closed_top;
}

TEST(JsonWriter, EmitsObjectsArraysAndEscapes) {
  std::ostringstream out;
  {
    JsonWriter json(out);
    json.begin_object()
        .field("name", "a\"b\\c\nd")
        .field("count", std::uint64_t{42})
        .field("ratio", 0.5)
        .field("flag", true);
    json.key("items").begin_array().value(std::uint64_t{1}).null().end_array();
    json.end_object();
  }
  EXPECT_EQ(out.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":42,\"ratio\":0.5,"
            "\"flag\":true,\"items\":[1,null]}");
  EXPECT_TRUE(balanced_json(out.str()));
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object()
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .end_object();
  EXPECT_EQ(out.str(), "{\"nan\":null,\"inf\":null}");
}

TEST(JsonWriter, ControlCharactersEscapeAsUnicode) {
  std::ostringstream out;
  JsonWriter json(out);
  json.value(std::string_view("a\x01z"));
  EXPECT_EQ(out.str(), "\"a\\u0001z\"");
}

TEST(Provenance, CurrentIsPopulated) {
  const Provenance p = Provenance::current();
  // The CMake injection gives real values; the header fallback says
  // "unknown". Either way the fields must not be empty (cxx_flags may be).
  EXPECT_FALSE(p.git_sha.empty());
  EXPECT_FALSE(p.build_type.empty());
  EXPECT_FALSE(p.compiler.empty());
}

TEST(TopologyFingerprint, SensitiveToEveryLinkBit) {
  const auto build = [](std::size_t nodes, double prr_12) {
    return topology::Topology::from_links(
        std::vector<topology::Point2D>(nodes), {{0, 1, 0.5}, {1, 2, prr_12}});
  };
  const topology::Topology a = build(3, 0.25);
  const topology::Topology b = build(3, 0.25);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  const topology::Topology prr_changed = build(3, 0.250000001);
  EXPECT_NE(a.fingerprint(), prr_changed.fingerprint());

  const topology::Topology extra_node = build(4, 0.25);
  EXPECT_NE(a.fingerprint(), extra_node.fingerprint());
}

TEST(Histogram, SerializesSparseBins) {
  Histogram h;
  h.record(2.0, 3);
  h.record(50.0);
  std::ostringstream out;
  JsonWriter json(out);
  write_histogram(json, h);
  const std::string text = out.str();
  EXPECT_TRUE(balanced_json(text));
  EXPECT_NE(text.find("\"count\":4"), std::string::npos);
  EXPECT_NE(text.find("{\"lower\":2,\"count\":3}"), std::string::npos);
  EXPECT_NE(text.find("{\"lower\":50,\"count\":1}"), std::string::npos);
  // Sparse: the 62 empty bins serialize nothing.
  EXPECT_EQ(text.find("\"count\":0"), std::string::npos);
}

TEST(RunReport, IsBalancedAndCarriesTheAdvertisedKeys) {
  topology::ClusterConfig gen;
  gen.base.num_sensors = 30;
  gen.base.area_side_m = 180.0;
  gen.base.radio.path_loss_exponent = 3.3;
  gen.base.seed = 5;
  gen.num_clusters = 3;
  const topology::Topology topo = topology::make_clustered(gen);

  sim::SimConfig config;
  config.num_packets = 4;
  config.duty = DutyCycle{10};
  config.seed = 3;
  config.profiling = true;

  StatsObserver stats(topo.num_nodes(), config.num_packets);
  const auto proto = protocols::make_protocol("dbao");
  const sim::SimResult result =
      sim::run_simulation(topo, config, *proto, &stats);

  RunReportContext context;
  context.tool = "test";
  context.protocol = "dbao";
  context.topo = &topo;
  context.config = &config;
  context.result = &result;
  context.metrics = &stats.registry();
  context.wall_seconds = 0.25;

  std::ostringstream out;
  write_run_report(out, context);
  const std::string text = out.str();
  EXPECT_TRUE(balanced_json(text));
  for (const char* key :
       {"\"schema\":\"ldcf.run_report.v2\"", "\"tool\":\"test\"",
        "\"provenance\"", "\"git_sha\"", "\"config\"", "\"seed\":3",
        "\"topology\"", "\"fingerprint\"", "\"result\"", "\"covered_packets\"",
        "\"profiler\"", "\"slots_per_sec\"", "\"metrics\"",
        "\"delay.total\"", "\"energy.per_node\"", "\"tx.attempts\""}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing " << key;
  }
  // Profiling was on, so the profiler section carries real slot counts.
  EXPECT_NE(text.find("\"enabled\":true"), std::string::npos);

  // A report without the optional registry omits the metrics key.
  context.metrics = nullptr;
  std::ostringstream bare;
  write_run_report(bare, context);
  EXPECT_TRUE(balanced_json(bare.str()));
  EXPECT_EQ(bare.str().find("\"metrics\""), std::string::npos);

  context.result = nullptr;
  std::ostringstream broken;
  EXPECT_THROW(write_run_report(broken, context), InvalidArgument);
}

}  // namespace
}  // namespace ldcf::obs
