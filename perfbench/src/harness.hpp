// Benchmark harness: clocks, order statistics, in-memory span tracing and
// the metric table every workload reports into.
//
// Nothing here links against ldcf; the statistics and the metric table are
// what the self-tests (tests/test_harness.cpp) pin.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start);

/// Counter-based seed derivation (splitmix64 over seed and stream): every
/// generated input is a pure function of the workload seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t stream);

// --- Order statistics ------------------------------------------------------

/// Median (mean of the middle two for an even count); 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// Quartiles exactly as Python's statistics.quantiles(samples, n=4) (the
/// default "exclusive" method). One sample gives that sample three times;
/// no samples give zeros.
struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};
[[nodiscard]] Quartiles quartiles(std::vector<double> samples);

/// (q3 - q1) / median: the spread the benchmark is held to; 0 when the
/// median is 0.
[[nodiscard]] double iqr_share(const std::vector<double>& samples);

/// The highest of the percentiles 99.9, 99 and 90 that has at least ten of
/// `count` samples beyond it; nullopt when even p90 has fewer.
[[nodiscard]] std::optional<double> reportable_tail(std::size_t count);

/// Linear-interpolation percentile (p in [0, 100]); 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or a digit.
[[nodiscard]] bool valid_metric_name(std::string_view name);

// --- Spans -----------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around the
/// layer's public function. `parent` indexes the enclosing span (-1 for a
/// root); spans of one operation share `op`.
struct Span {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer was created.
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// Spans kept in memory and written out once at the end. A disabled tracer
/// records nothing; the workloads still time their end-to-end operations
/// with their own clocks.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Records [construction, destruction) as a span nested in the innermost
  /// open scope.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::uint64_t op = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations (s) of every span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// Sum of durations(name).
  [[nodiscard]] double total(std::string_view name) const;

  /// Chrome trace-event JSON ("X" events, one lane).
  void write_chrome_trace(std::ostream& out) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// --- Metrics ---------------------------------------------------------------

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricDecl {
  std::string_view name;
  std::string_view unit;
  MetricKind kind;
};

/// Every metric the benchmark emits. Each workload emits all of one kind:
/// end-to-end metrics are measured on every workload; a per-layer metric a
/// workload does not exercise reads 0.
[[nodiscard]] const std::vector<MetricDecl>& metric_table();

[[nodiscard]] const MetricDecl* find_metric(std::string_view name);

/// One run's result: metric values plus the correctness tally.
class Report {
 public:
  /// Throws std::logic_error for a name missing from metric_table().
  void set(std::string_view name, double value);
  [[nodiscard]] bool has(std::string_view name) const;
  [[nodiscard]] double get(std::string_view name) const;

  /// Count one attempted operation or check; a false `ok` counts it failed
  /// and prints `what` to stderr.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// every declared metric of `kind`. An end-to-end metric that was never
  /// set, or any value that is not finite, counts as a failed check and is
  /// written as 0, so the result is marked incorrect instead of partial.
  void write_result(std::ostream& out, MetricKind kind);

  /// Human-readable "metric <name> <value> <unit>" lines for every metric
  /// set so far.
  void write_table(std::ostream& out) const;

 private:
  std::map<std::string, double, std::less<>> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
