// serve_mix: an in-process serve::FloodServer on a Unix socket (one job
// worker) driven by one closed-loop serve::FloodClient. The client submits
// a seeded sequence of 2k-10k-sensor jobs with cheap protocols: each cold
// submit (a topology key the server has not seen) is followed by warm
// submits that exactly repeat two earlier specs, and the cache budget keeps
// the whole working set resident. It exercises serve (framing, job parsing,
// ArtifactCache, report serialization) and, on cold submits, topology
// build.
//
// The timed operation is a round of 30 submits with the same make-up every
// time. Single submits range from 25 ms (small, warm) to 350 ms (large,
// cold), so a median over single submits would jump between those classes
// as the number of submits in a run changes.
#include <unistd.h>

#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ldcf/analysis/report.hpp"
#include "ldcf/obs/json_reader.hpp"
#include "ldcf/serve/client.hpp"
#include "ldcf/serve/job.hpp"
#include "ldcf/serve/server.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/topology/tree.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Every block of five cold jobs covers each size once, and a round's two
// blocks use one protocol each, so the job mix — and with it the latency
// distribution — is the same for every round and seed; the seed picks the
// order, the topologies and the simulation seeds.
constexpr std::array<std::uint32_t, 5> kSizes = {2000, 4000, 6000, 8000,
                                                 10000};
constexpr std::array<const char*, 2> kProtocols = {"opt", "dbao"};
constexpr std::size_t kSpecsPerRound = kSizes.size() * kProtocols.size();
// Offline checks per run (the traced run checks a whole round's specs).
constexpr std::size_t kOfflineChecks = 5;
constexpr int kSetups = 15;
// Run once per server in set-up: a fresh server's first job. Start, connect
// and ping alone take ~0.1 ms, dominated by thread start-up latency that
// varied 2x between runs; the first job makes set-up a unit of real work.
constexpr const char* kFirstJob =
    "{\"protocol\":\"opt\",\"sensors\":1000,\"topology_seed\":1,"
    "\"seed\":1,\"duty_pct\":5,\"num_packets\":4,\"reps\":1,"
    "\"threads\":1}";

struct Job {
  std::string config;  ///< the submit frame's "config" object.
  bool cold = false;
  std::size_t spec = 0;  ///< index of the distinct spec it runs.
};

/// The seeded job sequence, round by round: round r submits cold specs
/// 10r .. 10r+9, each followed by warm repeats of the two specs before it
/// (round 0, which has fewer, is the untimed warm-up).
class JobSequence {
 public:
  explicit JobSequence(std::uint64_t seed) : seed_(seed) {}

  std::vector<Job> next_round() {
    std::vector<Job> jobs;
    for (std::size_t n = 0; n < kSpecsPerRound; ++n) {
      const std::size_t k = specs_.size();
      specs_.push_back(make_spec(k));
      jobs.push_back({specs_.back(), true, k});
      for (std::size_t back = 1; back <= 2 && back <= k; ++back) {
        jobs.push_back({specs_[k - back], false, k - back});
      }
    }
    return jobs;
  }

  [[nodiscard]] const std::vector<std::string>& specs() const { return specs_; }

 private:
  std::string make_spec(std::size_t i) const {
    const std::size_t block = i / kSizes.size();
    // A seeded rotation of the size ladder per block.
    const std::size_t offset = derive_seed(seed_, 1000 + block) % kSizes.size();
    const std::uint32_t sensors = kSizes[(i + offset) % kSizes.size()];
    // Blocks alternate protocols, so every ten cold jobs cover each
    // (size, protocol) pair once.
    const char* protocol = kProtocols[block % kProtocols.size()];
    std::ostringstream out;
    out << "{\"protocol\":\"" << protocol << "\",\"sensors\":" << sensors
        << ",\"topology_seed\":" << derive_seed(seed_, 3000 + i) % 1'000'000'000
        << ",\"seed\":" << derive_seed(seed_, 4000 + i) % 1'000'000'000
        << ",\"duty_pct\":5,\"num_packets\":4,\"reps\":1,\"threads\":1}";
    return out.str();
  }

  std::uint64_t seed_;
  std::vector<std::string> specs_;
};

/// The embedded sweep report of a result frame (its bytes as the server
/// sent them), or empty when the frame is not a result.
std::string report_bytes(const std::string& frame) {
  const std::string key = "\"report\":";
  const std::size_t at = frame.find(key);
  if (frame.rfind("{\"type\":\"result\"", 0) != 0 ||
      at == std::string::npos || frame.back() != '}') {
    return {};
  }
  return frame.substr(at + key.size(),
                      frame.size() - 1 - (at + key.size()));
}

/// The same spec run offline: run_point + write_sweep_report with the
/// server's report context.
std::string offline_report(const std::string& config_json) {
  const ldcf::obs::JsonPtr config = ldcf::obs::parse_json(config_json);
  const ldcf::serve::JobSpec spec = ldcf::serve::parse_job_spec(*config);
  const ldcf::topology::Topology topo = ldcf::serve::build_topology(spec);
  const ldcf::analysis::ExperimentConfig experiment =
      ldcf::serve::make_experiment(spec);
  const std::vector<ldcf::analysis::ProtocolPoint> points{
      ldcf::analysis::run_point(topo, spec.protocol,
                                ldcf::serve::spec_duty(spec), experiment)};
  ldcf::analysis::SweepReportContext context;
  context.tool = "flood_server";
  context.topo = &topo;
  context.config = &experiment;
  context.points = &points;
  context.wall_seconds = 0.0;
  std::ostringstream out;
  ldcf::analysis::write_sweep_report(out, context);
  std::string text = out.str();
  while (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

double tail_ms(const std::vector<double>& samples_s) {
  const std::optional<double> tail = reportable_tail(samples_s.size());
  if (!tail || *tail < 90.0) return 0.0;
  return 1e3 * percentile(samples_s, 90.0);
}

struct Submit {
  double total_s = 0.0;
  double accept_s = 0.0;          ///< submit -> accepted frame.
  double first_progress_s = 0.0;  ///< accepted -> first progress frame.
  double run_s = 0.0;             ///< accepted -> result frame.
  std::size_t result_bytes = 0;
};

}  // namespace

void run_serve_mix(const Options& options, Report& report, Tracer& tracer) {
  ldcf::serve::ServerConfig server_config;
  // Relative, so the path stays within sun_path however deep the checkout.
  server_config.endpoint.unix_path = options.work_dir + "/serve-" +
                                     std::to_string(::getpid()) + ".sock";
  server_config.job_workers = 1;
  // The default 64 MiB cache budget holds a few dozen specs: far more than
  // the warm repeats reach back (two specs), so every warm submit hits while
  // old specs are evicted and memory plateaus instead of growing with the
  // run's length.

  // Setup, repeated: start the server, connect, ping, run the first job.
  // The last server is kept.
  tracer.set_enabled(options.trace);
  std::unique_ptr<ldcf::serve::FloodServer> server;
  std::unique_ptr<ldcf::serve::FloodClient> client;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    client.reset();
    if (server) server->stop();
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<ldcf::serve::FloodServer>(server_config);
    server->start();
    client = std::make_unique<ldcf::serve::FloodClient>(server_config.endpoint);
    const ldcf::obs::JsonPtr pong = client->request("{\"op\":\"ping\"}");
    const std::string first = client->submit_raw(kFirstJob);
    setups.push_back(seconds_since(t0));
    report.check(pong->str("type") == "pong", "serve_mix: ping answered");
    report.check(!report_bytes(first).empty(),
                 "serve_mix: first job ended in a result frame");
  }

  JobSequence sequence(options.seed);
  std::map<std::size_t, std::string> cold_reports;  // spec -> report bytes.
  std::uint64_t op = 0;
  const auto submit = [&](const Job& job) {
    Submit s;
    const auto t0 = Clock::now();
    Clock::time_point accepted = t0;
    bool seen_progress = false;
    std::string terminal;
    {
      Tracer::Scope span(tracer, job.cold ? "serve.submit.cold"
                                          : "serve.submit.warm", ++op);
      terminal = client->submit_raw(
          job.config,
          [&](const std::string&, const ldcf::obs::JsonValue& frame) {
            const std::string type = frame.str("type");
            if (type == "accepted") {
              accepted = Clock::now();
              s.accept_s = std::chrono::duration<double>(accepted - t0).count();
            } else if (type == "progress" && !seen_progress) {
              seen_progress = true;
              s.first_progress_s =
                  std::chrono::duration<double>(Clock::now() - accepted).count();
            }
          });
      s.run_s = std::chrono::duration<double>(Clock::now() - accepted).count();
    }
    s.total_s = seconds_since(t0);
    s.result_bytes = terminal.size();
    const std::string bytes = report_bytes(terminal);
    report.check(!bytes.empty(), "serve_mix: job " + std::to_string(op) +
                                     " ended in a result frame");
    if (job.cold) {
      cold_reports[job.spec] = bytes;
    } else {
      report.check(bytes == cold_reports[job.spec],
                   "serve_mix: warm result byte-identical to its cold submit");
    }
    return s;
  };

  // Every submit of the run, for the cache accounting below.
  std::size_t cold_submits = 0;
  std::size_t warm_submits = 0;
  // Per-submit times of the timed untraced rounds, by class.
  std::vector<double> cold;
  std::vector<double> warm;
  const auto run_round = [&](std::vector<Submit>* out, bool timed) {
    for (const Job& job : sequence.next_round()) {
      const Submit s = submit(job);
      ++(job.cold ? cold_submits : warm_submits);
      if (timed) (job.cold ? cold : warm).push_back(s.total_s);
      if (out != nullptr) out->push_back(s);
    }
  };

  tracer.set_enabled(false);
  run_round(nullptr, false);  // Warm-up: fills the cache, fewer warm jobs.
  const double budget = options.trace ? 0.4 * options.seconds : options.seconds;
  const std::vector<double> untraced =
      measure(budget, 3, [&] { run_round(nullptr, true); });
  report_timings(report, setups, untraced);
  double untraced_total = 0.0;
  for (const double t : untraced) untraced_total += t;
  report.set("e2e.submit_cold_p50_ms", 1e3 * median(cold));
  report.set("e2e.submit_cold_p90_ms", tail_ms(cold));
  report.set("e2e.submit_warm_p50_ms", 1e3 * median(warm));
  report.set("e2e.submit_warm_p90_ms", tail_ms(warm));
  report.set("e2e.jobs_per_s",
             static_cast<double>(cold.size() + warm.size()) / untraced_total);

  // Cache hit = cold run = offline run, for the first specs (a whole
  // round's when traced).
  const std::size_t offline_count =
      options.trace ? kSpecsPerRound : kOfflineChecks;
  tracer.set_enabled(options.trace);
  std::vector<double> offline_times;
  for (std::size_t i = 0; i < offline_count; ++i) {
    const auto t0 = Clock::now();
    std::string offline;
    {
      Tracer::Scope span(tracer, "serve.offline");
      offline = offline_report(sequence.specs()[i]);
    }
    offline_times.push_back(seconds_since(t0));
    report.check(offline == cold_reports[i],
                 "serve_mix: served report equals the offline report for "
                 "spec " + std::to_string(i));
  }

  if (options.trace) {
    std::vector<Submit> traced;
    const std::vector<double> traced_rounds = measure(
        0.4 * options.seconds, 3, [&] { run_round(&traced, false); });
    std::vector<double> accept;
    std::vector<double> progress;
    std::vector<double> run;
    std::vector<double> bytes;
    for (const Submit& s : traced) {
      accept.push_back(s.accept_s);
      progress.push_back(s.first_progress_s);
      run.push_back(s.run_s);
      bytes.push_back(static_cast<double>(s.result_bytes));
    }
    report.set("serve.accept_ms", 1e3 * median(accept));
    report.set("serve.first_progress_ms", 1e3 * median(progress));
    report.set("serve.run_ms", 1e3 * median(run));
    report.set("serve.offline_ms", 1e3 * median(offline_times));
    report.set("serve.result_bytes", median(bytes));
    report.set("bench.trace_overhead",
               median(traced_rounds) / median(untraced));

    // Topology-layer costs of the cold specs, built the server's way.
    std::vector<double> build_times;
    std::vector<double> seal_times;
    std::vector<double> tree_times;
    std::vector<double> derive_times;
    double links = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(kSizes.size(),
                                                      sequence.specs().size());
         ++i) {
      const ldcf::serve::JobSpec spec = ldcf::serve::parse_job_spec(
          *ldcf::obs::parse_json(sequence.specs()[i]));
      auto t0 = Clock::now();
      ldcf::topology::Topology topo = [&] {
        Tracer::Scope span(tracer, "topology.build");
        return ldcf::serve::build_topology(spec);
      }();
      build_times.push_back(seconds_since(t0));
      t0 = Clock::now();
      (void)topo.neighbors(0);
      seal_times.push_back(seconds_since(t0));
      links += static_cast<double>(topo.num_links());
      t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "topology.build_etx_tree");
        (void)ldcf::topology::build_etx_tree(topo, 0);
      }
      tree_times.push_back(seconds_since(t0));
      ldcf::sim::SimConfig config = ldcf::serve::make_experiment(spec).base;
      t0 = Clock::now();
      {
        Tracer::Scope span(tracer, "schedule.derive_schedule_set");
        (void)ldcf::sim::derive_schedule_set(topo, config);
      }
      derive_times.push_back(seconds_since(t0));
    }
    report.set("topology.build_s", median(build_times));
    report.set("topology.seal_s", median(seal_times));
    report.set("topology.etx_tree_s", median(tree_times));
    report.set("schedule.derive_s", median(derive_times));
    report.set("topology.links", links);

    const ldcf::serve::ServerStats stats = server->stats();
    double evictions = 0.0;
    for (const ldcf::serve::CacheKindStats& kind : stats.cache.kinds) {
      const double lookups = static_cast<double>(kind.hits + kind.misses);
      report.set("serve.cache." + kind.kind + ".hit_ratio",
                 lookups > 0 ? static_cast<double>(kind.hits) / lookups : 0.0);
      evictions += static_cast<double>(kind.evictions);
    }
    report.set("serve.cache.evictions", evictions);
    report.set("serve.cache.bytes_in_use",
               static_cast<double>(stats.cache.bytes_in_use));
  }

  const ldcf::serve::ServerStats final_stats = server->stats();
  report.check(final_stats.jobs.rejected == 0 && final_stats.jobs.failed == 0,
               "serve_mix: no rejected or failed jobs");
  // The working set stays resident: the set-up job and every cold submit
  // miss each artifact kind once, warm submits hit all of them.
  bool resident = !final_stats.cache.kinds.empty();
  for (const ldcf::serve::CacheKindStats& kind : final_stats.cache.kinds) {
    resident = resident && kind.misses == cold_submits + 1 &&
               kind.hits == warm_submits;
  }
  report.check(resident, "serve_mix: cold submits miss and warm ones hit the "
                         "cache exactly once per artifact kind");
  client.reset();
  server->stop();
  ::unlink(server_config.endpoint.unix_path.c_str());
}

}  // namespace perfbench
