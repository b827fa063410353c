// flood_server — the sweep service daemon.
//
// Clients connect over TCP or a Unix socket and speak newline-delimited
// JSON. Requests are one object per line:
//
//   {"op":"ping"}                          -> {"type":"pong"}
//   {"op":"stats"}                         -> {"type":"stats", ...}
//   {"op":"submit","config":{...JobSpec}}  -> {"type":"accepted","job":N}
//                                             {"type":"progress","job":N,...}*
//                                             {"type":"result","job":N,
//                                              "report":{ldcf.sweep_report.v2}}
//
// Malformed frames and inadmissible jobs get structured {"type":"rejected"}
// or {"type":"error"} frames; the daemon never dies on client input. A line
// longer than kMaxLineBytes (net.hpp) gets {"type":"error","job":0,
// "code":"frame_too_large"} and the connection is closed.
//
// Architecture: one acceptor thread, one reader thread per connection, and
// a bounded worker pool executing jobs FIFO. Each job's trials fan out
// through analysis::run_point (the same executor the CLI uses), with
// progress streamed back per completed trial. Immutable artifacts —
// built topologies, per-trial working schedules, OF energy trees — are
// memoized in an ArtifactCache keyed on content fingerprints, and results
// are byte-identical whether artifacts came from the cache or were built
// cold (stage profiling stays off and report wall_seconds pinned to zero,
// so identical jobs produce identical bytes).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include "ldcf/serve/cache.hpp"
#include "ldcf/serve/job.hpp"
#include "ldcf/serve/net.hpp"

namespace ldcf::serve {

struct ServerConfig {
  Endpoint endpoint;                 ///< TCP host:port or unix_path.
  std::uint32_t job_workers = 1;     ///< 0 = accept-only (tests: queue fills
                                     ///< deterministically, nothing runs).
  std::size_t max_queued_jobs = 8;   ///< admission: reject when full.
  std::uint32_t max_trials_per_job = 256;  ///< admission: reps ceiling.
  std::size_t cache_budget_bytes = 64ull << 20;
};

struct JobCounters {
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;   ///< admission + malformed submissions.
  std::uint64_t failed = 0;     ///< ran but threw (includes cancelled).
};

struct ServerStats {
  JobCounters jobs;
  std::uint64_t connections = 0;
  std::uint64_t malformed_frames = 0;
  CacheStats cache;
};

class FloodServer {
 public:
  explicit FloodServer(ServerConfig config);
  ~FloodServer();

  /// Bind, listen, and spawn the acceptor and worker threads. Throws
  /// InvalidArgument when the endpoint cannot be bound.
  void start();

  /// Stop accepting, finish the jobs already being executed (their
  /// in-flight trials complete unless the process-wide cancel flag is up),
  /// flush error frames for never-started queued jobs, close every
  /// connection and join all threads. Idempotent.
  void stop();

  /// The resolved TCP port (meaningful after start(); equals the config
  /// port unless that was 0 = ephemeral).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  [[nodiscard]] ServerStats stats() const;

  /// Write the ldcf.server_stats.v1 artifact (atomically, tmp + rename).
  void write_stats_file(const std::string& path) const;

 private:
  struct Connection {
    Socket sock;
    std::mutex write_mutex;
    std::atomic<bool> alive{true};
    std::thread reader;
  };

  struct QueuedJob {
    std::uint64_t id = 0;
    JobSpec spec;
    std::shared_ptr<Connection> conn;
  };

  void acceptor_loop();
  void connection_loop(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    const std::string& line);
  void worker_loop();
  void run_job(const QueuedJob& job);
  bool send_frame(Connection& conn, const std::string& frame);

  ServerConfig config_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  // Live connections, and the readers of closed ones awaiting a join (at
  // the next accept, or in stop()). A reader leaves connections_ when its
  // client goes away, so the socket closes once no queued job holds it.
  std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::thread> finished_readers_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<QueuedJob> queue_;
  std::uint64_t next_job_id_ = 0;

  ArtifactCache cache_;
  std::atomic<std::uint64_t> jobs_accepted_{0};
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_rejected_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
  std::atomic<std::uint64_t> connections_seen_{0};
  std::atomic<std::uint64_t> malformed_frames_{0};
};

}  // namespace ldcf::serve
