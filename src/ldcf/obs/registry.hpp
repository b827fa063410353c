// Named-metric registry: counters and histograms.
//
// A MetricsRegistry is the unit of telemetry exchange between layers: the
// engine-side StatsObserver fills one per run, reduce_trials merges them
// across repetitions (and the parallel executor's index-ordered reduction
// keeps the merge bit-identical for any thread count), and the report
// writer serializes one to JSON. Lookups happen once, at instrumentation
// setup: counter()/histogram() hand back references that stay valid for
// the registry's lifetime (node-based storage), so the hot path is a plain
// increment with no map walk and no allocation.
//
// Merge semantics (exact, order-independent on integer data):
//   counters   add
//   histograms Histogram::merge (bin counts exactly preserved)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "ldcf/obs/histogram.hpp"

namespace ldcf::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class MetricsRegistry {
 public:
  /// Find-or-create. References remain valid for the registry's lifetime.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  /// Union-by-name fold of `other` into this registry; metrics absent here
  /// are created first.
  void merge(const MetricsRegistry& other);

  /// Name-ordered iteration for serialization and tests.
  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters()
      const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  histograms() const {
    return histograms_;
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace ldcf::obs
