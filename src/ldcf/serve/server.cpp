#include "ldcf/serve/server.hpp"

#include <sys/socket.h>

#include <cerrno>
#include <sstream>
#include <utility>

#include "ldcf/analysis/cancel.hpp"
#include "ldcf/analysis/report.hpp"
#include "ldcf/common/error.hpp"
#include "ldcf/common/math_utils.hpp"
#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/json_reader.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/topology/tree.hpp"

namespace ldcf::serve {

namespace {

/// Rough live sizes for the cache budget. These only have to be honest
/// enough that the LRU budget means something — exactness is not needed.
std::size_t topology_bytes(const topology::Topology& topo) {
  // Positions and out-rows, 48 B per node and 16 per link, plus the
  // in-link index, 8 B per node (+ 8) and 8 per link.
  return topo.num_nodes() * 56 + 8 + topo.num_links() * 24;
}

std::size_t tree_bytes(const topology::Tree& tree) {
  return tree.parent.size() * (sizeof(NodeId) + sizeof(double));
}

std::size_t schedule_bytes(const schedule::ScheduleSet& schedules) {
  return schedules.memory_bytes();
}

std::string hex_fingerprint(std::uint64_t fingerprint) {
  static const char* kDigits = "0123456789abcdef";
  std::string text(16, '0');
  for (int i = 15; i >= 0; --i) {
    text[static_cast<std::size_t>(i)] = kDigits[fingerprint & 0xf];
    fingerprint >>= 4;
  }
  return text;
}

std::string rejected_frame(const std::string& code, const std::string& message) {
  std::ostringstream out;
  {
    obs::JsonWriter json(out);
    json.begin_object()
        .field("type", "rejected")
        .field("code", code)
        .field("message", message)
        .end_object();
  }
  return out.str();
}

std::string error_frame(std::uint64_t job, const std::string& code,
                        const std::string& message) {
  std::ostringstream out;
  {
    obs::JsonWriter json(out);
    json.begin_object()
        .field("type", "error")
        .field("job", job)
        .field("code", code)
        .field("message", message)
        .end_object();
  }
  return out.str();
}

void write_stats_body(obs::JsonWriter& json, const ServerStats& stats) {
  json.key("jobs")
      .begin_object()
      .field("accepted", stats.jobs.accepted)
      .field("completed", stats.jobs.completed)
      .field("rejected", stats.jobs.rejected)
      .field("failed", stats.jobs.failed)
      .end_object();
  json.field("connections", stats.connections)
      .field("malformed_frames", stats.malformed_frames);
  json.key("cache")
      .begin_object()
      .field("budget_bytes", static_cast<std::uint64_t>(stats.cache.budget_bytes))
      .field("bytes_in_use", static_cast<std::uint64_t>(stats.cache.bytes_in_use))
      .field("entries", static_cast<std::uint64_t>(stats.cache.entries))
      .key("kinds")
      .begin_array();
  for (const CacheKindStats& kind : stats.cache.kinds) {
    json.begin_object()
        .field("kind", kind.kind)
        .field("hits", kind.hits)
        .field("misses", kind.misses)
        .field("evictions", kind.evictions)
        .end_object();
  }
  json.end_array().end_object();
}

}  // namespace

FloodServer::FloodServer(ServerConfig config)
    : config_(std::move(config)), cache_(config_.cache_budget_bytes) {}

FloodServer::~FloodServer() { stop(); }

void FloodServer::start() {
  LDCF_REQUIRE(!listener_.valid(), "server already started");
  listener_ = listen_on(config_.endpoint, 64, &port_);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  workers_.reserve(config_.job_workers);
  for (std::uint32_t i = 0; i < config_.job_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void FloodServer::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;

  // Wake the acceptor out of accept(); close() alone does not reliably
  // interrupt a thread already blocked there. Close only after the join:
  // the acceptor reads the listener's fd until it exits.
  if (listener_.valid()) ::shutdown(listener_.fd(), SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  listener_.close();

  // Workers drain the job they are running and exit on the next pop;
  // jobs still queued get a structured shutdown error below.
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    for (const QueuedJob& job : queue_) {
      jobs_failed_.fetch_add(1, std::memory_order_relaxed);
      (void)send_frame(*job.conn,
                       error_frame(job.id, "shutdown",
                                   "server stopped before the job ran"));
    }
    queue_.clear();
  }

  // Unblock every connection reader, then join them all. The thread
  // handles are taken under the lock because an exiting reader moves its
  // own; each reader then removes its connection from connections_.
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    readers.swap(finished_readers_);
    for (const std::shared_ptr<Connection>& conn : connections_) {
      conn->alive.store(false, std::memory_order_relaxed);
      if (conn->sock.valid()) ::shutdown(conn->sock.fd(), SHUT_RDWR);
      readers.push_back(std::move(conn->reader));
    }
  }
  for (std::thread& reader : readers) reader.join();
}

ServerStats FloodServer::stats() const {
  ServerStats stats;
  stats.jobs.accepted = jobs_accepted_.load(std::memory_order_relaxed);
  stats.jobs.completed = jobs_completed_.load(std::memory_order_relaxed);
  stats.jobs.rejected = jobs_rejected_.load(std::memory_order_relaxed);
  stats.jobs.failed = jobs_failed_.load(std::memory_order_relaxed);
  stats.connections = connections_seen_.load(std::memory_order_relaxed);
  stats.malformed_frames = malformed_frames_.load(std::memory_order_relaxed);
  stats.cache = cache_.stats();
  return stats;
}

void FloodServer::write_stats_file(const std::string& path) const {
  const ServerStats snapshot = stats();
  obs::write_file_atomic(path, [&](std::ostream& out) {
    {
      obs::JsonWriter json(out);
      json.begin_object().field("schema", "ldcf.server_stats.v1");
      write_stats_body(json, snapshot);
      json.end_object();
    }
    out << '\n';
  });
}

void FloodServer::acceptor_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Socket client = accept_client(listener_);
    if (!client.valid()) {
      if (stopping_.load(std::memory_order_relaxed) || errno != EINTR) break;
      continue;
    }
    connections_seen_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>();
    conn->sock = std::move(client);
    std::vector<std::thread> finished;
    {
      // Spawned under the lock: the reader's exit path moves conn->reader.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      conn->reader = std::thread([this, conn] { connection_loop(conn); });
      connections_.push_back(std::move(conn));
      finished.swap(finished_readers_);
    }
    for (std::thread& reader : finished) reader.join();
  }
}

void FloodServer::connection_loop(const std::shared_ptr<Connection>& conn) {
  LineReader reader(conn->sock.fd());
  std::string line;
  try {
    while (reader.next_line(line)) {
      if (line.empty()) continue;  // tolerate keep-alive blank lines.
      handle_frame(conn, line);
    }
  } catch (const InvalidArgument& e) {
    // An over-long line (handle_frame catches its own errors): refuse it and
    // drop the connection; its stream has no frame boundary left.
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(*conn, error_frame(0, "frame_too_large", e.what()));
    ::shutdown(conn->sock.fd(), SHUT_RDWR);
  }
  conn->alive.store(false, std::memory_order_relaxed);
  // Leave the live set and hand this thread over to be joined. The socket
  // closes with the last reference: here, or when a queued job that still
  // holds the connection finishes (its send_frame sees alive == false).
  std::lock_guard<std::mutex> lock(connections_mutex_);
  std::erase(connections_, conn);
  finished_readers_.push_back(std::move(conn->reader));
}

void FloodServer::handle_frame(const std::shared_ptr<Connection>& conn,
                               const std::string& line) {
  try {
    const obs::JsonPtr doc = obs::parse_json(line);
    LDCF_REQUIRE(doc->is_object(), "frame must be a JSON object");
    const std::string op = doc->str("op");

    if (op == "ping") {
      (void)send_frame(*conn, "{\"type\":\"pong\"}");
      return;
    }

    if (op == "stats") {
      const ServerStats snapshot = stats();
      std::ostringstream out;
      {
        obs::JsonWriter json(out);
        json.begin_object().field("type", "stats");
        write_stats_body(json, snapshot);
        json.end_object();
      }
      (void)send_frame(*conn, out.str());
      return;
    }

    if (op == "submit") {
      const obs::JsonValue* config = doc->find("config");
      LDCF_REQUIRE(config != nullptr, "submit frame needs a config object");
      const JobSpec spec = parse_job_spec(*config);
      if (spec.reps > config_.max_trials_per_job) {
        jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
        (void)send_frame(
            *conn, rejected_frame(
                       "too_many_trials",
                       "config.reps " + std::to_string(spec.reps) +
                           " exceeds the per-job ceiling " +
                           std::to_string(config_.max_trials_per_job)));
        return;
      }
      if (const std::uint64_t cells = job_cells(spec); cells > kMaxJobCells) {
        jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
        (void)send_frame(
            *conn, rejected_frame(
                       "job_too_large",
                       "(sensors + 1) x max(period, num_packets) = " +
                           std::to_string(cells) +
                           " exceeds the per-job ceiling " +
                           std::to_string(kMaxJobCells)));
        return;
      }
      std::uint64_t id = 0;
      std::size_t depth = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        if (queue_.size() >= config_.max_queued_jobs) {
          jobs_rejected_.fetch_add(1, std::memory_order_relaxed);
          (void)send_frame(
              *conn, rejected_frame("queue_full",
                                    "job queue is full (" +
                                        std::to_string(queue_.size()) +
                                        " jobs waiting)"));
          return;
        }
        id = ++next_job_id_;
        queue_.push_back(QueuedJob{id, spec, conn});
        depth = queue_.size();
      }
      jobs_accepted_.fetch_add(1, std::memory_order_relaxed);
      std::ostringstream out;
      {
        obs::JsonWriter json(out);
        json.begin_object()
            .field("type", "accepted")
            .field("job", id)
            .field("queued", static_cast<std::uint64_t>(depth))
            .field("fingerprint", hex_fingerprint(spec_fingerprint(spec)))
            .end_object();
      }
      (void)send_frame(*conn, out.str());
      queue_cv_.notify_one();
      return;
    }

    throw InvalidArgument("unknown op: '" + op + "'");
  } catch (const std::exception& e) {
    malformed_frames_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(*conn, rejected_frame("bad_request", e.what()));
  }
}

void FloodServer::worker_loop() {
  while (true) {
    QueuedJob job;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      // On shutdown leave whatever is still queued for stop() to flush
      // with structured error frames.
      if (stopping_.load(std::memory_order_relaxed)) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    run_job(job);
  }
}

void FloodServer::run_job(const QueuedJob& job) {
  const JobSpec& spec = job.spec;
  try {
    const std::uint64_t topo_key = topology_key(spec);
    const std::shared_ptr<const topology::Topology> topo =
        cache_.get<topology::Topology>(
            "topology", topo_key, [&] { return build_topology(spec); },
            topology_bytes);

    analysis::ExperimentConfig experiment = make_experiment(spec);

    const std::uint64_t tree_key =
        fnv1a_mix(topo_key, experiment.base.source);
    const std::shared_ptr<const topology::Tree> tree =
        cache_.get<topology::Tree>(
            "etx_tree", tree_key,
            [&] {
              return topology::build_etx_tree(*topo, experiment.base.source);
            },
            tree_bytes);

    // Per-trial artifacts: run_point derives each trial's seed before this
    // hook fires, so the schedule key can include it. The hook runs on
    // whichever worker thread picked the trial up — the cache is
    // thread-safe and builds are single-flight.
    experiment.trial_artifacts = [this, topo, tree,
                                  topo_key](sim::SimConfig& config) {
      config.shared_tree = tree;
      std::uint64_t key = fnv1a_mix(topo_key, config.seed);
      key = fnv1a_mix(key, config.duty.period);
      key = fnv1a_mix(key, config.slots_per_period);
      config.shared_schedules = cache_.get<schedule::ScheduleSet>(
          "schedules", key,
          [&] { return sim::derive_schedule_set(*topo, config); },
          schedule_bytes);
    };

    const std::shared_ptr<Connection> conn = job.conn;
    const std::uint64_t id = job.id;
    experiment.progress = [this, conn, id](const analysis::Progress& p) {
      std::ostringstream out;
      {
        obs::JsonWriter json(out);
        json.begin_object()
            .field("type", "progress")
            .field("job", id)
            .field("completed", static_cast<std::uint64_t>(p.completed))
            .field("total", static_cast<std::uint64_t>(p.total))
            .end_object();
      }
      (void)send_frame(*conn, out.str());
    };

    const analysis::ProtocolPoint point =
        analysis::run_point(*topo, spec.protocol, spec_duty(spec), experiment);

    const std::vector<analysis::ProtocolPoint> points{point};
    analysis::SweepReportContext context;
    context.tool = "flood_server";
    context.topo = topo.get();
    context.config = &experiment;
    context.points = &points;
    context.wall_seconds = 0.0;  // determinism: no wall clock in the report.
    std::ostringstream report;
    analysis::write_sweep_report(report, context);
    std::string report_json = report.str();
    while (!report_json.empty() && report_json.back() == '\n') {
      report_json.pop_back();
    }

    // The report is already serialized JSON, so the result frame is
    // assembled by hand to embed it unescaped.
    std::string frame = "{\"type\":\"result\",\"job\":" + std::to_string(id) +
                        ",\"fingerprint\":\"" +
                        hex_fingerprint(spec_fingerprint(spec)) +
                        "\",\"report\":" + report_json + "}";
    jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(*conn, frame);
  } catch (const analysis::CancelledError&) {
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(*job.conn,
                     error_frame(job.id, "cancelled",
                                 "job cancelled by server shutdown signal"));
  } catch (const std::exception& e) {
    jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    (void)send_frame(*job.conn, error_frame(job.id, "failed", e.what()));
  }
}

bool FloodServer::send_frame(Connection& conn, const std::string& frame) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!conn.alive.load(std::memory_order_relaxed)) return false;
  if (!conn.sock.valid()) return false;
  if (!send_all(conn.sock.fd(), frame) || !send_all(conn.sock.fd(), "\n")) {
    conn.alive.store(false, std::memory_order_relaxed);
    return false;
  }
  return true;
}

}  // namespace ldcf::serve
