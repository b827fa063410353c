#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

Quartiles quartiles(std::vector<double> samples) {
  if (samples.empty()) return {};
  if (samples.size() == 1) return {samples[0], samples[0], samples[0]};
  std::sort(samples.begin(), samples.end());
  // CPython statistics.quantiles, method="exclusive", n=4.
  const auto count = static_cast<long long>(samples.size());
  const long long m = count + 1;
  double cut[3] = {0.0, 0.0, 0.0};
  for (long long i = 1; i < 4; ++i) {
    long long j = i * m / 4;
    j = std::clamp(j, 1LL, count - 1);
    const long long delta = i * m - j * 4;
    cut[i - 1] = (samples[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(4 - delta) +
                  samples[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

double iqr_share(const std::vector<double>& samples) {
  const double mid = median(samples);
  if (mid == 0.0) return 0.0;
  const Quartiles q = quartiles(samples);
  return (q.q3 - q.q1) / mid;
}

std::optional<double> reportable_tail(std::size_t count) {
  for (const double p : {99.9, 99.0, 90.0}) {
    const double beyond = static_cast<double>(count) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return std::nullopt;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 *
      static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::uint64_t op)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = std::move(name);
  span.start_s = seconds_since(tracer_.origin_);
  span.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  span.op = op;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(span));
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(tracer_.origin_);
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end_s - span.start_s);
  }
  return out;
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const double d : durations(name)) sum += d;
  return sum;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "" : ",") << "{\"name\":\"" << span.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << std::fixed
        << std::setprecision(3) << span.start_s * 1e6
        << ",\"dur\":" << (span.end_s - span.start_s) * 1e6
        << ",\"args\":{\"op\":" << span.op << ",\"parent\":" << span.parent
        << "}}";
  }
  out << "]}\n";
}

const std::vector<MetricDecl>& metric_table() {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  constexpr MetricKind L = MetricKind::kPerLayer;
  static const std::vector<MetricDecl> table = {
      // End to end, on every workload.
      {"setup_s", "s", E},
      {"peak_rss_mb", "MB", E},
      {"op_p50_ms", "ms", E},
      {"ops_per_s", "1/s", E},
      // The workload-specific end-to-end figures, from the untraced part
      // of a traced run.
      {"e2e.sweep_s", "s", L},
      {"e2e.submit_cold_p50_ms", "ms", L},
      {"e2e.submit_cold_p90_ms", "ms", L},
      {"e2e.submit_warm_p50_ms", "ms", L},
      {"e2e.submit_warm_p90_ms", "ms", L},
      {"e2e.jobs_per_s", "1/s", L},
      {"e2e.failed_ratio", "ratio", L},
      // topology / schedule.
      {"topology.build_s", "s", L},
      {"topology.seal_s", "s", L},
      {"topology.etx_tree_s", "s", L},
      {"topology.links", "count", L},
      {"schedule.derive_s", "s", L},
      // sim: StageProfile, summed over the traced pass.
      {"sim.faults_s", "s", L},
      {"sim.generation_s", "s", L},
      {"sim.intents_s", "s", L},
      {"sim.sync_miss_s", "s", L},
      {"sim.channel_s", "s", L},
      {"sim.channel_gather_s", "s", L},
      {"sim.channel_draw_s", "s", L},
      {"sim.channel_apply_s", "s", L},
      {"sim.energy_s", "s", L},
      {"sim.apply_s", "s", L},
      {"sim.coverage_s", "s", L},
      {"sim.compact_s", "s", L},
      {"sim.loop_s", "s", L},
      {"sim.dispatch_s", "s", L},
      {"sim.slots_executed", "count", L},
      {"sim.slots_skipped", "count", L},
      {"sim.skip_ratio", "ratio", L},
      {"sim.ns_per_executed_slot", "ns", L},
      {"sim.channel.attempts", "count", L},
      {"sim.channel.success_ratio", "ratio", L},
      // protocols / analysis / obs.
      {"protocols.of.trial_s", "s", L},
      {"protocols.dbao.trial_s", "s", L},
      {"protocols.opt.trial_s", "s", L},
      {"protocols.of.intents_share", "ratio", L},
      {"protocols.dbao.intents_share", "ratio", L},
      {"protocols.opt.intents_share", "ratio", L},
      {"analysis.trial_p50_s", "s", L},
      {"analysis.trial_max_s", "s", L},
      {"analysis.executor_efficiency", "ratio", L},
      {"analysis.reduce_s", "s", L},
      {"obs.report_s", "s", L},
      {"obs.report_bytes", "bytes", L},
      // serve.
      {"serve.accept_ms", "ms", L},
      {"serve.first_progress_ms", "ms", L},
      {"serve.run_ms", "ms", L},
      {"serve.offline_ms", "ms", L},
      {"serve.cache.topology.hit_ratio", "ratio", L},
      {"serve.cache.etx_tree.hit_ratio", "ratio", L},
      {"serve.cache.schedules.hit_ratio", "ratio", L},
      {"serve.cache.evictions", "count", L},
      {"serve.cache.bytes_in_use", "bytes", L},
      {"serve.result_bytes", "bytes", L},
      // The benchmark itself.
      {"bench.trace_overhead", "ratio", L},
  };
  return table;
}

const MetricDecl* find_metric(std::string_view name) {
  for (const MetricDecl& decl : metric_table()) {
    if (decl.name == name) return &decl;
  }
  return nullptr;
}

void Report::set(std::string_view name, double value) {
  if (find_metric(name) == nullptr) {
    throw std::logic_error("undeclared metric: " + std::string(name));
  }
  values_[std::string(name)] = value;
}

bool Report::has(std::string_view name) const {
  return values_.find(name) != values_.end();
}

double Report::get(std::string_view name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: check failed: " << what << "\n";
  }
}

void Report::write_result(std::ostream& out, MetricKind kind) {
  std::ostringstream metrics;
  metrics << std::setprecision(std::numeric_limits<double>::max_digits10);
  bool first = true;
  for (const MetricDecl& decl : metric_table()) {
    if (decl.kind != kind) continue;
    double value = get(decl.name);
    if (kind == MetricKind::kEndToEnd && !has(decl.name)) {
      check(false, "end-to-end metric " + std::string(decl.name) +
                       " was not measured");
    }
    if (!std::isfinite(value)) {
      check(false, "metric " + std::string(decl.name) + " is not finite");
      value = 0.0;
    }
    metrics << (first ? "" : ", ") << "\"" << decl.name
            << "\": {\"value\": " << value << ", \"unit\": \"" << decl.unit
            << "\"}";
    first = false;
  }
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max<std::uint64_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {" << metrics.str()
      << "}}\n";
}

void Report::write_table(std::ostream& out) const {
  for (const MetricDecl& decl : metric_table()) {
    const auto it = values_.find(decl.name);
    if (it == values_.end()) continue;
    out << "metric " << decl.name << " " << it->second << " " << decl.unit
        << "\n";
  }
}

}  // namespace perfbench
