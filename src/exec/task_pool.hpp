#pragma once

// exec::TaskPool — fixed-size worker pool over a bounded MPMC task queue.
//
// The execution engine behind the asynchronous in situ bridge
// (core::AsyncBridge) and the data-parallel kernels (exec::parallel_for):
//
//   * submit() hands a callable to the pool and returns a std::future for
//     its result; an exception thrown by the task propagates through the
//     future to whoever calls get().
//   * The queue is bounded: once `queue_capacity` tasks are waiting,
//     submit() blocks the producer until a worker drains one — the
//     building block for backpressure.
//   * shutdown() (and the destructor) drains every queued task before
//     joining the workers; nothing submitted is silently lost.
//
// Worker threads are plain std::threads with no rank identity: code that
// must charge a rank's MemoryTracker or record spans installs the rank's
// context inside the task itself (see core::AsyncBridge). The one thing a
// task inherits is its submitter's kernels::StatsSink, so kernel calls a
// worker makes on behalf of a run (parallel_for helper chunks, fiber
// carriers, async analyses) count toward that run; the counts are
// flushed before the task's future becomes ready.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "kernels/kernels.hpp"

namespace insitu::exec {

class TaskPool {
 public:
  /// `threads`: worker count (clamped to >= 1). `queue_capacity`: maximum
  /// queued (not yet running) tasks; 0 means unbounded.
  explicit TaskPool(int threads, std::size_t queue_capacity = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True when the calling thread is a worker of *any* TaskPool. Used by
  /// parallel_for to run nested parallelism serially instead of
  /// re-entering a pool it might itself be servicing.
  static bool on_worker_thread();

  /// Enqueue a callable; may block while the queue is at capacity.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(fn),
         sink = kernels::current_stats_sink()]() mutable -> R {
          if (sink == nullptr) return fn();
          kernels::ScopedStatsSink charge(sink);
          return fn();
        });
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Blocks until the queue is empty and no task is running.
  void wait_idle();

  /// Drains the queue, then joins the workers. Idempotent (also run by
  /// the destructor). Submitting after shutdown is invalid.
  void shutdown();

 private:
  void enqueue(std::function<void()> task);
  void worker_main();

  std::mutex mutex_;
  std::condition_variable not_empty_;  // workers: a task is available
  std::condition_variable not_full_;   // producers: the queue has room
  std::condition_variable idle_;       // wait_idle(): fully drained
  std::deque<std::function<void()>> queue_;
  std::size_t capacity_;
  int running_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

// ---- parallel_for ----

/// Sets the process-wide worker budget used by parallel_for; `threads <= 1`
/// keeps kernels serial. Wired from the CLIs' `threads=N` option; callable
/// at any time (the shared pool is rebuilt on next use).
void set_global_threads(int threads);
int global_threads();

/// The shared pool behind parallel_for: `global_threads() - 1` workers
/// (the calling thread is the remaining one), or nullptr when serial.
TaskPool* global_pool();

/// Splits [begin, end) into `grain`-sized chunks and runs
/// `body(chunk_begin, chunk_end)` across the shared pool with the caller
/// participating. Chunks are disjoint and cover the range exactly once,
/// so bodies that write to per-index or per-chunk slots produce output
/// identical to the serial loop for any thread count — parallel_for
/// speeds up wall clock without perturbing results or virtual time.
/// Falls back to a single serial call when the pool is disabled, the
/// range fits in one chunk, or the caller is itself a pool worker.
void parallel_for(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// Number of chunks parallel_for will use for a range; kernels that merge
/// per-chunk partial results size their scratch with this.
inline std::int64_t parallel_chunk_count(std::int64_t begin, std::int64_t end,
                                         std::int64_t grain) {
  if (end <= begin) return 0;
  if (grain < 1) grain = 1;
  return (end - begin + grain - 1) / grain;
}

}  // namespace insitu::exec
