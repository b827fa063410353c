// Fingerprint-keyed memoization of immutable simulation artifacts.
//
// The sweep service sees the same experiment shapes over and over: repeated
// jobs share built topologies, per-trial working schedules, and OF energy
// trees, all of which are pure functions of their fingerprinted inputs.
// ArtifactCache memoizes them under one LRU byte budget:
//
//  - entries are shared_ptr<const void>; eviction only drops the cache's
//    reference, so artifacts still wired into running trials stay alive;
//  - concurrent requests for the same key are single-flight: the first
//    caller builds, the rest wait on a condition variable and share the
//    result (no duplicate builds, no torn entries);
//  - per-kind hit/miss/eviction counters feed the ldcf.server_stats.v1
//    artifact.
//
// Correctness does not depend on the cache: every artifact a hit returns is
// bit-identical to what a cold build would produce (the engine validates
// injected artifacts, and tests/sim/test_shared_artifacts.cpp pins it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>
#include <utility>
#include <vector>

namespace ldcf::serve {

struct CacheKindStats {
  std::string kind;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
};

struct CacheStats {
  std::vector<CacheKindStats> kinds;  ///< sorted by kind name.
  std::size_t entries = 0;
  std::size_t bytes_in_use = 0;
  std::size_t budget_bytes = 0;
};

class ArtifactCache {
 public:
  /// `budget_bytes` bounds the sum of the entries' reported sizes; the
  /// least-recently-used entries are dropped on insert while over budget.
  /// A single artifact larger than the whole budget is still cached until
  /// the next insert — the budget shapes steady state, it is not a hard
  /// allocation limit.
  explicit ArtifactCache(std::size_t budget_bytes);

  /// Look up (kind, key); on a miss build T via `make` (outside the cache
  /// lock) and insert it with `bytes(value)` as its size. Concurrent gets
  /// of the same key wait for the in-flight build instead of duplicating
  /// it. A build that throws wakes the waiters (they retry the build) and
  /// propagates the exception to its own caller.
  template <typename T, typename Make, typename Bytes>
  [[nodiscard]] std::shared_ptr<const T> get(const std::string& kind,
                                             std::uint64_t key, Make&& make,
                                             Bytes&& bytes) {
    return std::static_pointer_cast<const T>(
        fetch(kind, key, [&](std::size_t& size) {
          auto value = std::make_shared<const T>(make());
          size = bytes(*value);
          return std::static_pointer_cast<const void>(std::move(value));
        }));
  }

  [[nodiscard]] CacheStats stats() const;

 private:
  // The type-erased lookup behind get().
  using Builder =
      std::function<std::shared_ptr<const void>(std::size_t& bytes)>;
  [[nodiscard]] std::shared_ptr<const void> fetch(const std::string& kind,
                                                  std::uint64_t key,
                                                  const Builder& build);

  using Key = std::pair<std::string, std::uint64_t>;

  struct Entry {
    std::shared_ptr<const void> value;
    std::size_t bytes = 0;
    bool building = true;
    std::list<Key>::iterator lru;  ///< valid only when !building.
  };

  struct Counters {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  void evict_over_budget_locked();

  const std::size_t budget_bytes_;
  mutable std::mutex mutex_;
  std::condition_variable built_;
  std::map<Key, Entry> entries_;
  std::list<Key> lru_;  ///< front = most recently used.
  std::map<std::string, Counters> counters_;
  std::size_t bytes_in_use_ = 0;
};

}  // namespace ldcf::serve
