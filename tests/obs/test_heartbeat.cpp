// Heartbeat tests: JSONL schema shape, ETA semantics, the observer's done
// record, and the end-to-end experiment wiring.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/obs/heartbeat.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(HeartbeatWriter, WritesOneSchemaStampedJsonObjectPerLine) {
  const std::string path = temp_path("ldcf_heartbeat_writer_test.jsonl");
  std::filesystem::remove(path);
  {
    obs::HeartbeatWriter writer(path);
    obs::HeartbeatRecord rec;
    rec.trial = 7;
    rec.label = "dbao-T20-r3";
    rec.slots = 500;
    rec.packets_covered = 2;
    rec.packets_total = 12;
    rec.wall_seconds = 1.5;
    rec.slots_per_sec = 333.3;
    rec.eta_seconds = 7.5;
    writer.write(rec);
    rec.done = true;
    rec.eta_seconds = 0.0;
    writer.write(rec);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"schema\":\"ldcf.heartbeat.v1\""),
            std::string::npos);
  EXPECT_NE(lines[0].find("\"trial\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"label\":\"dbao-T20-r3\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"done\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("\"done\":true"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(HeartbeatWriter, UnknownEtaSerializesAsNull) {
  const std::string path = temp_path("ldcf_heartbeat_eta_test.jsonl");
  std::filesystem::remove(path);
  {
    obs::HeartbeatWriter writer(path);
    obs::HeartbeatRecord rec;  // eta_seconds defaults to -1: unknown.
    writer.write(rec);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"eta_seconds\":null"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(HeartbeatWriter, ThrowsOnUnopenablePath) {
  EXPECT_THROW(obs::HeartbeatWriter("/nonexistent-dir/hb.jsonl"),
               InvalidArgument);
}

TEST(HeartbeatObserver, EmitsAFinalDoneRecord) {
  const std::string path = temp_path("ldcf_heartbeat_observer_test.jsonl");
  std::filesystem::remove(path);
  {
    obs::HeartbeatWriter writer(path);
    // Huge interval: only the final done record should appear.
    obs::HeartbeatObserver observer(writer, 3, "opt", 12, 3600.0);
    observer.on_packet_covered(0, 10);
    observer.on_packet_covered(1, 20);
    sim::SimResult result;
    result.metrics.end_slot = 4096;
    observer.on_run_end(result);
  }
  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"done\":true"), std::string::npos);
  EXPECT_NE(lines[0].find("\"trial\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"slots\":4096"), std::string::npos);
  EXPECT_NE(lines[0].find("\"packets_covered\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"eta_seconds\":0"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(HeartbeatObserver, StridesOverExecutedSlotsNotSlotIndices) {
  // Compact time executes only slots where something can happen: here
  // every odd index, so no executed slot is a multiple of the 1024-slot
  // clock stride. Heartbeats must still fire mid-run.
  const std::string path = temp_path("ldcf_heartbeat_compact_test.jsonl");
  std::filesystem::remove(path);
  constexpr std::uint64_t kExecuted = 8 * 1024;
  {
    obs::HeartbeatWriter writer(path);
    obs::HeartbeatObserver observer(writer, 0, "dbao", 6, 1e-9);
    for (std::uint64_t k = 0; k < kExecuted; ++k) {
      observer.on_slot_begin(2 * k + 1, {});
    }
    sim::SimResult result;
    result.metrics.end_slot = 2 * kExecuted;
    observer.on_run_end(result);
  }
  const auto lines = read_lines(path);
  // One check on the first executed slot and every 1024th after it, each
  // past the 1 ns interval, plus the done record.
  ASSERT_EQ(lines.size(), kExecuted / 1024 + 1);
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"done\":false"), std::string::npos) << i;
  }
  EXPECT_NE(lines.back().find("\"done\":true"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(HeartbeatObserver, RejectsNonPositiveInterval) {
  const std::string path = temp_path("ldcf_heartbeat_interval_test.jsonl");
  std::filesystem::remove(path);
  obs::HeartbeatWriter writer(path);
  EXPECT_THROW(obs::HeartbeatObserver(writer, 0, "x", 1, 0.0),
               InvalidArgument);
  std::filesystem::remove(path);
}

// End-to-end: a multi-trial run_point streams one done record per trial
// into the shared writer, labeled "<protocol>-T<period>-r<rep>".
TEST(Heartbeat, ExperimentStreamsOneDoneRecordPerTrial) {
  const std::string path = temp_path("ldcf_heartbeat_experiment_test.jsonl");
  std::filesystem::remove(path);

  topology::ClusterConfig topo_config;
  topo_config.base.num_sensors = 30;
  topo_config.base.area_side_m = 200.0;
  topo_config.base.seed = 5;
  const topology::Topology topo = topology::make_clustered(topo_config);

  analysis::ExperimentConfig config;
  config.base.num_packets = 3;
  config.base.seed = 3;
  config.repetitions = 3;
  config.threads = 2;
  config.heartbeat_path = path;

  (void)analysis::run_point(topo, "dbao", DutyCycle{10}, config);

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 3u) << "one done record per repetition";
  std::size_t done = 0;
  for (const std::string& line : lines) {
    EXPECT_NE(line.find("\"schema\":\"ldcf.heartbeat.v1\""),
              std::string::npos);
    EXPECT_NE(line.find("\"label\":\"dbao-T10-r"), std::string::npos);
    if (line.find("\"done\":true") != std::string::npos) ++done;
  }
  EXPECT_EQ(done, 3u);
  std::filesystem::remove(path);
}

}  // namespace
