#include "ldcf/analysis/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "ldcf/analysis/cancel.hpp"
#include "ldcf/obs/timeline.hpp"

namespace ldcf::analysis {

namespace {

Progress make_progress(std::size_t completed, std::size_t total,
                       std::uint64_t start_ns) {
  Progress p;
  p.completed = completed;
  p.total = total;
  p.elapsed_seconds =
      static_cast<double>(obs::steady_now_ns() - start_ns) * 1e-9;
  if (p.elapsed_seconds > 0.0) {
    p.tasks_per_sec = static_cast<double>(completed) / p.elapsed_seconds;
  }
  if (p.tasks_per_sec > 0.0 && completed < total) {
    p.eta_seconds =
        static_cast<double>(total - completed) / p.tasks_per_sec;
  }
  return p;
}

}  // namespace

std::uint32_t resolve_threads(std::uint32_t requested) {
  if (requested != 0) return requested;
  return std::max(1u, std::thread::hardware_concurrency());
}

void parallel_for_indexed(std::size_t count, std::uint32_t threads,
                          const std::function<void(std::size_t)>& task,
                          const ProgressFn& progress) {
  const std::size_t workers =
      std::min<std::size_t>(resolve_threads(threads), count);
  const std::uint64_t start = obs::steady_now_ns();
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      if (cancel_requested()) throw CancelledError();
      task(i);
      if (progress) progress(make_progress(i + 1, count, start));
    }
    return;
  }

  // Indices are claimed from one atomic counter; each failure lands in the
  // slot owned by its index so the rethrow choice below is deterministic.
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::size_t completed = 0;  // guarded by progress_mutex.
  std::mutex progress_mutex;
  std::vector<std::exception_ptr> errors(count);
  const auto worker = [&] {
    // The cancellation flag is consulted before each claim, never inside a
    // task: in-flight trials always run to completion, only unstarted
    // indices are abandoned.
    while (!cancel_requested()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        task(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
      done.fetch_add(1, std::memory_order_relaxed);
      if (progress) {
        const std::lock_guard<std::mutex> lock(progress_mutex);
        progress(make_progress(++completed, count, start));
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();

  // Task failures outrank the cancellation signal: the lowest-index error
  // is what a serial run would have surfaced first. A cancel that raced
  // with the last task finishing is not an error — everything ran.
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  if (done.load(std::memory_order_relaxed) < count) throw CancelledError();
}

}  // namespace ldcf::analysis
