#include "ldcf/serve/cache.hpp"

#include "ldcf/common/error.hpp"

namespace ldcf::serve {

ArtifactCache::ArtifactCache(std::size_t budget_bytes)
    : budget_bytes_(budget_bytes) {}

std::shared_ptr<const void> ArtifactCache::fetch(const std::string& kind,
                                                 std::uint64_t key,
                                                 const Builder& build) {
  const Key k{kind, key};
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const auto it = entries_.find(k);
    if (it == entries_.end()) break;  // we get to build it.
    if (!it->second.building) {
      ++counters_[kind].hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru);  // touch.
      return it->second.value;
    }
    // Another thread is building this entry; wait for it, then re-check
    // (the build may have failed and removed the placeholder).
    built_.wait(lock);
  }

  ++counters_[kind].misses;
  entries_[k];  // placeholder with building=true blocks duplicate builds.
  lock.unlock();

  std::shared_ptr<const void> value;
  std::size_t bytes = 0;
  try {
    value = build(bytes);
    LDCF_CHECK(value != nullptr, "artifact builder returned null");
  } catch (...) {
    lock.lock();
    entries_.erase(k);
    built_.notify_all();
    throw;
  }

  lock.lock();
  Entry& entry = entries_[k];
  entry.value = value;
  entry.bytes = bytes;
  entry.building = false;
  lru_.push_front(k);
  entry.lru = lru_.begin();
  bytes_in_use_ += bytes;
  evict_over_budget_locked();
  built_.notify_all();
  return value;
}

void ArtifactCache::evict_over_budget_locked() {
  // Keep at least the entry just inserted: evicting the newest artifact
  // before anyone uses it would turn an oversized budget into a livelock.
  while (bytes_in_use_ > budget_bytes_ && lru_.size() > 1) {
    const Key victim = lru_.back();
    lru_.pop_back();
    const auto it = entries_.find(victim);
    bytes_in_use_ -= it->second.bytes;
    ++counters_[victim.first].evictions;
    entries_.erase(it);  // shared_ptr keeps in-use artifacts alive.
  }
}

CacheStats ArtifactCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CacheStats out;
  out.entries = lru_.size();
  out.bytes_in_use = bytes_in_use_;
  out.budget_bytes = budget_bytes_;
  for (const auto& [kind, counters] : counters_) {
    CacheKindStats k;
    k.kind = kind;
    k.hits = counters.hits;
    k.misses = counters.misses;
    k.evictions = counters.evictions;
    out.kinds.push_back(std::move(k));
  }
  return out;
}

}  // namespace ldcf::serve
