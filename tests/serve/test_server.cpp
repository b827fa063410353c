// FloodServer end-to-end: the NDJSON protocol, admission control,
// malformed-frame resilience, cooperative shutdown, and the headline
// determinism contract — a cache-hit result is byte-identical to a cold
// one, and both match what run_point produces directly.
#include "ldcf/serve/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/report.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/obs/json_reader.hpp"
#include "ldcf/serve/client.hpp"
#include "ldcf/serve/job.hpp"

namespace {

using ldcf::obs::JsonPtr;
using ldcf::obs::JsonValue;
using ldcf::obs::parse_json;
using ldcf::serve::Endpoint;
using ldcf::serve::FloodClient;
using ldcf::serve::FloodServer;
using ldcf::serve::ServerConfig;
using ldcf::serve::ServerStats;

ServerConfig local_config() {
  ServerConfig config;
  config.endpoint.host = "127.0.0.1";
  config.endpoint.port = 0;  // ephemeral; tests read server.port().
  return config;
}

Endpoint client_endpoint(const FloodServer& server) {
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = server.port();
  return endpoint;
}

/// The "report" value of a result frame, byte-exact. The frame tail is
/// "...,\"report\":<report>}", so the value is everything from the key to
/// the closing brace of the envelope.
std::string report_field(const std::string& result_frame) {
  const std::string key = "\"report\":";
  const std::size_t at = result_frame.find(key);
  EXPECT_NE(at, std::string::npos) << result_frame;
  if (at == std::string::npos) return {};
  return result_frame.substr(at + key.size(),
                             result_frame.size() - at - key.size() - 1);
}

TEST(FloodServerTest, PingPongAndStats) {
  FloodServer server(local_config());
  server.start();
  FloodClient client(client_endpoint(server));
  EXPECT_EQ(client.request("{\"op\":\"ping\"}")->str("type"), "pong");

  const JsonPtr stats = client.request("{\"op\":\"stats\"}");
  EXPECT_EQ(stats->str("type"), "stats");
  const JsonValue* jobs = stats->find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->num("accepted", 99), 0.0);
  server.stop();
}

std::size_t open_descriptors() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)entry;
    ++count;
  }
  return count;
}

// A closed client's socket and reader thread are released while the server
// keeps running, not only at stop(): sequential clients must not grow the
// process's open descriptors.
TEST(FloodServerTest, ClosedConnectionsReleaseTheirDescriptors) {
  FloodServer server(local_config());
  server.start();
  const std::size_t before = open_descriptors();
  for (int i = 0; i < 50; ++i) {
    FloodClient client(client_endpoint(server));
    ASSERT_EQ(client.request("{\"op\":\"ping\"}")->str("type"), "pong");
  }
  // The last readers may still be on their way out: allow them a moment.
  std::size_t after = open_descriptors();
  for (int wait = 0; wait < 200 && after > before + 2; ++wait) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = open_descriptors();
  }
  EXPECT_LE(after, before + 2);
  EXPECT_EQ(server.stats().connections, 50u);
  server.stop();
}

TEST(FloodServerTest, ResultMatchesDirectRunPointByteForByte) {
  const std::string config_json =
      R"({"protocol":"opt","sensors":40,"topology_seed":3,"reps":2,"seed":5})";

  FloodServer server(local_config());
  server.start();
  FloodClient client(client_endpoint(server));
  const std::string raw = client.submit_raw(config_json);
  server.stop();
  ASSERT_EQ(parse_json(raw)->str("type"), "result") << raw;

  // The same job executed directly, serialized the way the server does.
  const ldcf::serve::JobSpec spec =
      ldcf::serve::parse_job_spec(*parse_json(config_json));
  const ldcf::topology::Topology topo = ldcf::serve::build_topology(spec);
  const ldcf::analysis::ExperimentConfig experiment =
      ldcf::serve::make_experiment(spec);
  const ldcf::analysis::ProtocolPoint point = ldcf::analysis::run_point(
      topo, spec.protocol, ldcf::serve::spec_duty(spec), experiment);
  const std::vector<ldcf::analysis::ProtocolPoint> points{point};
  ldcf::analysis::SweepReportContext context;
  context.tool = "flood_server";
  context.topo = &topo;
  context.config = &experiment;
  context.points = &points;
  context.wall_seconds = 0.0;
  std::ostringstream direct;
  ldcf::analysis::write_sweep_report(direct, context);
  std::string expected = direct.str();
  while (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(report_field(raw), expected);
}

// The cache charges a topology for its in-link index as well as its
// out-rows: after one cold job its artifacts count at least 24 B per link
// (a 16 B Link plus an 8 B InLink) and 8 B per node, so the LRU budget
// bounds what is really resident.
TEST(FloodServerTest, CacheBytesCountTheInLinkIndex) {
  const std::string config_json =
      R"({"protocol":"opt","sensors":1000,"topology_seed":1,"seed":1,)"
      R"("duty_pct":5,"num_packets":4,"reps":1,"threads":1})";
  FloodServer server(local_config());
  server.start();
  FloodClient client(client_endpoint(server));
  ASSERT_EQ(client.submit(config_json)->str("type"), "result");
  const ServerStats stats = server.stats();
  server.stop();

  const ldcf::topology::Topology topo = ldcf::serve::build_topology(
      ldcf::serve::parse_job_spec(*parse_json(config_json)));
  EXPECT_GE(stats.cache.bytes_in_use,
            24 * topo.num_links() + 8 * topo.num_nodes());
}

TEST(FloodServerTest, SoakRepeatedJobsHitTheCacheAndStayByteIdentical) {
  ServerConfig config = local_config();
  config.job_workers = 2;
  config.max_queued_jobs = 64;
  FloodServer server(config);
  server.start();

  const std::string config_json =
      R"({"protocol":"naive","sensors":30,"reps":2,"threads":2})";
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 3;
  std::vector<std::vector<std::string>> reports(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      FloodClient client(client_endpoint(server));
      for (int j = 0; j < kJobsPerClient; ++j) {
        const std::string raw = client.submit_raw(config_json);
        if (parse_json(raw)->str("type") == "result") {
          reports[static_cast<std::size_t>(c)].push_back(report_field(raw));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  const ServerStats stats = server.stats();
  server.stop();

  // Every submission completed, and all reports are byte-identical.
  std::set<std::string> distinct;
  std::size_t total = 0;
  for (const auto& per_client : reports) {
    total += per_client.size();
    distinct.insert(per_client.begin(), per_client.end());
  }
  EXPECT_EQ(total, static_cast<std::size_t>(kClients * kJobsPerClient));
  EXPECT_EQ(distinct.size(), 1u);
  EXPECT_EQ(stats.jobs.completed,
            static_cast<std::uint64_t>(kClients * kJobsPerClient));

  // Identical jobs reuse artifacts: every kind shows cache hits.
  std::uint64_t hits = 0;
  for (const auto& kind : stats.cache.kinds) hits += kind.hits;
  EXPECT_GT(hits, 0u);
}

TEST(FloodServerTest, QueueFullRejection) {
  ServerConfig config = local_config();
  config.job_workers = 0;  // accept-only: the queue fills deterministically.
  config.max_queued_jobs = 2;
  FloodServer server(config);
  server.start();
  FloodClient client(client_endpoint(server));

  // The first two queue; each answers with an accepted frame.
  for (int i = 0; i < 2; ++i) {
    const JsonPtr reply =
        client.request(R"({"op":"submit","config":{"reps":1}})");
    EXPECT_EQ(reply->str("type"), "accepted");
  }
  const JsonPtr rejected =
      client.request(R"({"op":"submit","config":{"reps":1}})");
  EXPECT_EQ(rejected->str("type"), "rejected");
  EXPECT_EQ(rejected->str("code"), "queue_full");

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs.accepted, 2u);
  EXPECT_EQ(stats.jobs.rejected, 1u);
  server.stop();
}

TEST(FloodServerTest, TooManyTrialsRejection) {
  ServerConfig config = local_config();
  config.job_workers = 0;
  config.max_trials_per_job = 4;
  FloodServer server(config);
  server.start();
  FloodClient client(client_endpoint(server));
  const JsonPtr reply =
      client.request(R"({"op":"submit","config":{"reps":5}})");
  EXPECT_EQ(reply->str("type"), "rejected");
  EXPECT_EQ(reply->str("code"), "too_many_trials");
  server.stop();
}

TEST(FloodServerTest, JobTooLargeRejectionKeepsServing) {
  ServerConfig config = local_config();
  config.job_workers = 0;
  FloodServer server(config);
  server.start();
  FloodClient client(client_endpoint(server));
  // 100,001 nodes x T = 10,000 slots: within every per-key bound, but
  // far past the per-job cell ceiling.
  const JsonPtr reply = client.request(
      R"({"op":"submit","config":{"sensors":100000,"duty_pct":0.01}})");
  EXPECT_EQ(reply->str("type"), "rejected");
  EXPECT_EQ(reply->str("code"), "job_too_large");
  // Over a per-key bound: a bad_request, not a crash either.
  const JsonPtr oversized = client.request(
      R"({"op":"submit","config":{"sensors":100001}})");
  EXPECT_EQ(oversized->str("type"), "rejected");
  EXPECT_EQ(oversized->str("code"), "bad_request");
  EXPECT_EQ(client.request(R"({"op":"ping"})")->str("type"), "pong");
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs.rejected, 1u);
  EXPECT_EQ(stats.jobs.accepted, 0u);
  server.stop();
}

TEST(FloodServerTest, MalformedFramesGetRejectedNotFatal) {
  FloodServer server(local_config());
  server.start();
  FloodClient client(client_endpoint(server));

  const std::vector<std::string> bad_frames = {
      "this is not json",
      "{\"op\":\"warp\"}",
      "{\"no_op\":1}",
      R"({"op":"submit","config":{"sensor":500}})",
      R"({"op":"submit","config":{"protocol":"bogus"}})",
      R"({"op":"submit"})"};
  for (const std::string& frame : bad_frames) {
    SCOPED_TRACE(frame);
    const JsonPtr reply = client.request(frame);
    EXPECT_EQ(reply->str("type"), "rejected");
    EXPECT_EQ(reply->str("code"), "bad_request");
  }

  // The daemon survived all of it.
  EXPECT_EQ(client.request("{\"op\":\"ping\"}")->str("type"), "pong");
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.malformed_frames, 6u);
  EXPECT_EQ(stats.jobs.accepted, 0u);
  server.stop();
}

TEST(FloodServerTest, StopFlushesQueuedJobsWithShutdownErrors) {
  ServerConfig config = local_config();
  config.job_workers = 0;  // nothing ever runs; the queue holds the job.
  FloodServer server(config);
  server.start();

  // Raw socket so the frames after stop() can still be drained: stop()
  // writes the shutdown error before closing the connection, and the
  // bytes stay readable on the client side after the peer is gone.
  ldcf::serve::Socket sock =
      ldcf::serve::connect_to(client_endpoint(server));
  ASSERT_TRUE(ldcf::serve::send_all(
      sock.fd(), "{\"op\":\"submit\",\"config\":{\"reps\":1}}\n"));
  ldcf::serve::LineReader reader(sock.fd());
  std::string line;
  ASSERT_TRUE(reader.next_line(line));
  ASSERT_EQ(parse_json(line)->str("type"), "accepted");

  server.stop();
  ASSERT_TRUE(reader.next_line(line));
  const JsonPtr error = parse_json(line);
  EXPECT_EQ(error->str("type"), "error");
  EXPECT_EQ(error->str("code"), "shutdown");
  EXPECT_EQ(server.stats().jobs.failed, 1u);
}

/// A connected AF_UNIX stream pair: what one LineReader reads, the other
/// end writes.
std::pair<ldcf::serve::Socket, ldcf::serve::Socket> socket_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {ldcf::serve::Socket(fds[0]), ldcf::serve::Socket(fds[1])};
}

TEST(LineReader, SplitsPipelinedLinesAndJoinsFragments) {
  auto [reader_end, writer_end] = socket_pair();
  ASSERT_TRUE(ldcf::serve::send_all(writer_end.fd(), "a\nbb\n\nccc"));
  ASSERT_TRUE(ldcf::serve::send_all(writer_end.fd(), "c\ntail"));
  writer_end.close();
  ldcf::serve::LineReader reader(reader_end.fd());
  std::vector<std::string> lines;
  for (std::string line; reader.next_line(line);) lines.push_back(line);
  EXPECT_EQ(lines, (std::vector<std::string>{"a", "bb", "", "cccc"}));
}

TEST(LineReader, OverlongLineThrowsInvalidArgument) {
  auto [reader_end, writer_end] = socket_pair();
  std::thread writer([fd = writer_end.fd()] {
    (void)ldcf::serve::send_all(
        fd, std::string(2 * ldcf::serve::kMaxLineBytes, 'x'));
    ::shutdown(fd, SHUT_WR);  // an unbounded reader sees EOF, not a hang.
  });
  ldcf::serve::LineReader reader(reader_end.fd());
  std::string line;
  EXPECT_THROW((void)reader.next_line(line), ldcf::InvalidArgument);
  ::shutdown(reader_end.fd(), SHUT_RDWR);  // unblock the writer.
  writer.join();
}

TEST(LineReader, ServerRefusesOverlongLineAndKeepsServing) {
  FloodServer server(local_config());
  server.start();
  ldcf::serve::Socket sock = ldcf::serve::connect_to(client_endpoint(server));
  std::thread writer([fd = sock.fd()] {
    (void)ldcf::serve::send_all(
        fd, std::string(2 * ldcf::serve::kMaxLineBytes, ' ') + "\n");
  });
  ldcf::serve::LineReader reader(sock.fd());
  std::string reply;
  const bool replied = reader.next_line(reply);
  const JsonPtr frame = parse_json(replied ? reply : "{}");
  // The refusal closes the connection: the next read sees its end.
  std::string more;
  const bool closed =
      frame->str("type") == "error" && !reader.next_line(more);
  ::shutdown(sock.fd(), SHUT_RDWR);  // unblock the writer.
  writer.join();
  ASSERT_TRUE(replied);
  EXPECT_EQ(frame->str("type"), "error") << reply.substr(0, 200);
  EXPECT_EQ(frame->str("code"), "frame_too_large");
  EXPECT_TRUE(closed);

  FloodClient client(client_endpoint(server));
  EXPECT_EQ(client.request("{\"op\":\"ping\"}")->str("type"), "pong");
  EXPECT_EQ(server.stats().malformed_frames, 1u);
  server.stop();
}

TEST(LineReader, TenThousandPipelinedPingsGetTenThousandPongs) {
  constexpr int kPings = 10'000;
  FloodServer server(local_config());
  server.start();
  ldcf::serve::Socket sock = ldcf::serve::connect_to(client_endpoint(server));
  std::string frames;
  for (int i = 0; i < kPings; ++i) frames += "{\"op\":\"ping\"}\n";
  // Send from a second thread: the replies must be read while the
  // requests are still going out, or both socket buffers fill.
  std::thread writer([&frames, fd = sock.fd()] {
    EXPECT_TRUE(ldcf::serve::send_all(fd, frames));
  });
  ldcf::serve::LineReader reader(sock.fd());
  std::string line;
  int pongs = 0;
  while (pongs < kPings && reader.next_line(line)) {
    if (line != "{\"type\":\"pong\"}") break;
    ++pongs;
  }
  writer.join();
  EXPECT_EQ(pongs, kPings) << "last line: " << line;
  server.stop();
}

TEST(FloodServerTest, StatsFileIsValidJson) {
  FloodServer server(local_config());
  server.start();
  FloodClient client(client_endpoint(server));
  (void)client.request("{\"op\":\"ping\"}");
  server.stop();

  const std::string path = ::testing::TempDir() + "ldcf_server_stats.json";
  server.write_stats_file(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const JsonPtr doc = parse_json(buffer.str());
  EXPECT_EQ(doc->str("schema"), "ldcf.server_stats.v1");
  EXPECT_EQ(doc->num("connections", 0), 1.0);
  std::remove(path.c_str());
}

}  // namespace
