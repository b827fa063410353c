// ArtifactCache (serve/cache.hpp): LRU byte budget, per-kind counters,
// single-flight builds, and eviction that never kills an in-use artifact.
#include "ldcf/serve/cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using ldcf::serve::ArtifactCache;
using ldcf::serve::CacheKindStats;
using ldcf::serve::CacheStats;

const CacheKindStats* kind_stats(const CacheStats& stats,
                                 const std::string& kind) {
  for (const CacheKindStats& k : stats.kinds) {
    if (k.kind == kind) return &k;
  }
  return nullptr;
}

TEST(ArtifactCacheTest, HitAfterMissReturnsTheSameObject) {
  ArtifactCache cache(1 << 20);
  int builds = 0;
  const auto make = [&] {
    ++builds;
    return 42;
  };
  const auto bytes = [](const int&) { return std::size_t{100}; };
  const auto first = cache.get<int>("num", 1, make, bytes);
  const auto second = cache.get<int>("num", 1, make, bytes);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(*first, 42);

  const CacheStats stats = cache.stats();
  const CacheKindStats* num = kind_stats(stats, "num");
  ASSERT_NE(num, nullptr);
  EXPECT_EQ(num->hits, 1u);
  EXPECT_EQ(num->misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes_in_use, 100u);
}

TEST(ArtifactCacheTest, DistinctKindsDoNotCollide) {
  ArtifactCache cache(1 << 20);
  const auto bytes = [](const int&) { return std::size_t{8}; };
  const auto a = cache.get<int>("alpha", 7, [] { return 1; }, bytes);
  const auto b = cache.get<int>("beta", 7, [] { return 2; }, bytes);
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ArtifactCacheTest, LruEvictionRespectsTheBudgetAndRecency) {
  ArtifactCache cache(250);
  const auto bytes = [](const int&) { return std::size_t{100}; };
  int builds = 0;
  const auto build = [&](int v) {
    return [&builds, v] {
      ++builds;
      return v;
    };
  };
  (void)cache.get<int>("num", 1, build(1), bytes);
  (void)cache.get<int>("num", 2, build(2), bytes);
  (void)cache.get<int>("num", 1, build(1), bytes);  // touch 1: now MRU.
  (void)cache.get<int>("num", 3, build(3), bytes);  // 300 bytes: evict LRU=2.
  EXPECT_EQ(builds, 3);

  (void)cache.get<int>("num", 1, build(1), bytes);  // still cached.
  EXPECT_EQ(builds, 3);
  (void)cache.get<int>("num", 2, build(2), bytes);  // was evicted: rebuild.
  EXPECT_EQ(builds, 4);

  const CacheStats stats = cache.stats();  // kind_stats points into it.
  const CacheKindStats* num = kind_stats(stats, "num");
  ASSERT_NE(num, nullptr);
  EXPECT_GE(num->evictions, 1u);
}

TEST(ArtifactCacheTest, EvictedEntriesStayAliveWhileReferenced) {
  ArtifactCache cache(100);
  const auto bytes = [](const std::string&) { return std::size_t{100}; };
  const auto held = cache.get<std::string>(
      "blob", 1, [] { return std::string("survivor"); }, bytes);
  // Inserting a second full-budget entry evicts the first from the cache,
  // but the shared_ptr keeps the artifact itself alive.
  (void)cache.get<std::string>("blob", 2, [] { return std::string("next"); },
                               bytes);
  EXPECT_EQ(*held, "survivor");
  EXPECT_LE(cache.stats().bytes_in_use, 200u);
}

TEST(ArtifactCacheTest, OversizedArtifactIsStillUsable) {
  ArtifactCache cache(10);  // budget smaller than any entry.
  const auto bytes = [](const int&) { return std::size_t{1000}; };
  const auto a = cache.get<int>("big", 1, [] { return 5; }, bytes);
  EXPECT_EQ(*a, 5);
  // A hit right away is allowed (the entry survives until the next
  // insert); correctness never depends on it staying cached.
  const auto b = cache.get<int>("big", 1, [] { return 6; }, bytes);
  EXPECT_EQ(*b, 5);
}

TEST(ArtifactCacheTest, FailedBuildPropagatesAndRetries) {
  ArtifactCache cache(1 << 20);
  const auto bytes = [](const int&) { return std::size_t{8}; };
  bool first = true;
  const auto flaky = [&] {
    if (first) {
      first = false;
      throw std::runtime_error("transient");
    }
    return 9;
  };
  EXPECT_THROW((void)cache.get<int>("num", 1, flaky, bytes),
               std::runtime_error);
  const auto value = cache.get<int>("num", 1, flaky, bytes);
  EXPECT_EQ(*value, 9);
}

TEST(ArtifactCacheTest, ConcurrentFetchesAreSingleFlight) {
  ArtifactCache cache(1 << 20);
  std::atomic<int> builds{0};
  const auto make = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ++builds;
    return 123;
  };
  const auto bytes = [](const int&) { return std::size_t{8}; };
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const int>> results(8);
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back(
        [&, i] { results[i] = cache.get<int>("num", 1, make, bytes); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(*result, 123);
    EXPECT_EQ(result.get(), results[0].get());
  }
}

}  // namespace
