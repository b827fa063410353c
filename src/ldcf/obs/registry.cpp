#include "ldcf/obs/registry.hpp"

namespace ldcf::obs {

Counter& MetricsRegistry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram{}).first->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, other_counter] : other.counters_) {
    counter(name).inc(other_counter.value());
  }
  for (const auto& [name, other_hist] : other.histograms_) {
    histogram(name).merge(other_hist);
  }
}

}  // namespace ldcf::obs
