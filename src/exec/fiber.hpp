#pragma once

// exec::FiberScheduler — M:N scheduling of rank continuations.
//
// The SPMD runtime used to launch one OS thread per virtual rank, which
// caps *executed* scale at a few dozen ranks. Here each virtual rank is a
// fiber: a pooled, schedulable continuation with its own (small, lazily
// committed) stack, multiplexed onto the workers of an exec::TaskPool.
// A fiber runs until it would block at a message-match point — a receive
// with no matching message, a collective rendezvous that is not yet
// complete — and then *parks*: it registers itself with the WaitSet
// guarding the condition, switches back to its carrier worker, and the
// worker picks up the next runnable fiber.
//
// Run queues: every carrier owns one. run() homes spawn index i on
// carrier i * carriers / n, so each carrier holds a contiguous block of
// ranks (which lines up with the collective engine's 64-rank leaf
// slots), and a woken fiber always re-enters its home queue. A carrier
// pops its own queue first and steals from the others only when it runs
// dry; only a carrier that finds every queue empty sleeps. Fibers still
// migrate (through steals), so the runtime moves a rank's thread-local
// state — observability context, memory tracker adoption, log label —
// along with it via the resume/suspend hooks.
//
// Context switch: on x86-64 a few instructions of assembly save the
// callee-saved registers, MXCSR and the x87 control word on the
// outgoing stack and swap stack pointers — no signal-mask syscall, unlike
// glibc's swapcontext, which remains the switch on other targets.
//
// This is what lets the full pipeline — collectives, compositing
// ladders, in transit staging — really *execute* at 10K+ virtual ranks
// on one machine (docs/SCALING.md): the cost per rank drops from an OS
// thread (~8 MiB stack, kernel scheduling) to a fiber (~256 KiB virtual,
// a few touched pages, user-space switches only at match points).
//
// Determinism: the scheduler makes no ordering decisions the thread
// backend does not already make. Message matching stays FIFO per
// (source, tag), collective combines happen in arrival order exactly as
// before, and virtual time is pure arithmetic over agreed values — so
// virtual times, histograms, and image hashes are bit-identical between
// the `threads` and `mn` backends (bench/ablation_sched gates this).
//
// Blocking in a fiber through plain condition variables (e.g. waiting on
// a std::future from a TaskPool) is *safe* but pins the carrier for the
// duration; only WaitSet-based waits release the worker. All comm-layer
// match points use WaitSet.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define INSITU_EXEC_TSAN_FIBERS 1
#endif
#if __has_feature(address_sanitizer)
#define INSITU_EXEC_ASAN_FIBERS 1
#endif
#else
#if defined(__SANITIZE_THREAD__)
#define INSITU_EXEC_TSAN_FIBERS 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define INSITU_EXEC_ASAN_FIBERS 1
#endif
#endif
#ifndef INSITU_EXEC_TSAN_FIBERS
#define INSITU_EXEC_TSAN_FIBERS 0
#endif
#ifndef INSITU_EXEC_ASAN_FIBERS
#define INSITU_EXEC_ASAN_FIBERS 0
#endif

namespace insitu::exec {

class FiberScheduler;

/// One rank continuation. Created by FiberScheduler::spawn; lives until
/// its body returns. All members are managed by the scheduler; user code
/// only ever sees Fiber* as an opaque token via current_fiber().
class Fiber {
 public:
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Scheduler this fiber belongs to.
  FiberScheduler* scheduler() const { return scheduler_; }

 private:
  friend class FiberScheduler;
  friend class WaitSet;

  enum class State : int {
    kReady,    ///< in a run queue (or about to be enqueued by owner)
    kRunning,  ///< executing on a carrier worker
    kParking,  ///< announced a park; still unwinding onto its carrier
    kParked,   ///< fully switched out; a waker may enqueue it
    kFinished  ///< body returned
  };

  /// First code a fiber runs on its own stack (`fiber` is the Fiber*).
  [[noreturn]] static void entry(void* fiber);

  /// Switch from the fiber back to its carrier. Must be called on the
  /// fiber, with no locks held, after state_ was set to kParking (or
  /// kFinished by entry()).
  void suspend();

  void* context_ = nullptr;          // where the fiber last left off
  void* carrier_context_ = nullptr;  // where the hosting carrier left off
  int home_ = 0;                     // index of the home carrier's queue
  std::atomic<State> state_{State::kReady};
  std::function<void()> body_;
  std::function<void()> on_resume_;   // carrier-side, before switch-in
  std::function<void()> on_suspend_;  // carrier-side, after switch-out
  FiberScheduler* scheduler_ = nullptr;
  void* stack_block_ = nullptr;  // mmap block (guard page + stack)
  std::size_t stack_bytes_ = 0;  // usable stack size (excludes guard)

#if INSITU_EXEC_TSAN_FIBERS
  // TSan must be told about user-space context switches or it sees one OS
  // thread interleaving unrelated stacks and reports phantom races.
  void* tsan_fiber_ = nullptr;   // this fiber's TSan identity
  void* tsan_parent_ = nullptr;  // the hosting carrier's TSan identity
#endif
#if INSITU_EXEC_ASAN_FIBERS
  // ASan tracks the current stack's bounds; every switch announces the
  // stack it enters and the fiber learns its carrier's bounds from it.
  void* asan_fake_stack_ = nullptr;
  const void* asan_carrier_bottom_ = nullptr;
  std::size_t asan_carrier_size_ = 0;
#endif
};

/// The fiber the calling thread is currently running, or nullptr when
/// called from a plain thread (rank threads, TaskPool workers, main).
Fiber* current_fiber();

/// Condition-variable lookalike that understands fibers. Non-fiber
/// callers block on an internal std::condition_variable exactly like
/// before; fiber callers park and release their carrier worker. Both
/// kinds of waiter are woken by notify_all(). All calls must hold the
/// one mutex that guards the associated state (the same discipline as a
/// condition variable).
///
/// Waiters may additionally register under a 64-bit wakeup key
/// (wait_key) so wakers can target just the waiters a state change can
/// actually unblock (notify_key) instead of stampeding every waiter.
/// Keys only filter wakeups — they carry no data, and the usual
/// predicate-loop discipline still applies. Fiber waiters are woken
/// exactly by key; thread waiters share one condition variable, so a
/// matching notify may wake non-matching thread waiters spuriously
/// (harmless, and no notify is issued at all when no thread waiter can
/// match).
class WaitSet {
 public:
  /// Matches every key, in both directions: an any-key waiter is woken
  /// by every notify, and notify_key(kAnyKey) behaves like notify_all.
  static constexpr std::uint64_t kAnyKey = ~std::uint64_t{0};

  /// Block until notified. Spurious wakeups happen (exactly as with a
  /// condition variable): always wait in a predicate loop.
  void wait(std::unique_lock<std::mutex>& lock) { wait_key(lock, kAnyKey); }

  template <typename Predicate>
  void wait(std::unique_lock<std::mutex>& lock, Predicate predicate) {
    while (!predicate()) wait(lock);
  }

  /// Block until a notify matching `key` (notify_all, notify_key(key),
  /// or notify_key(kAnyKey)). Spurious wakeups happen.
  void wait_key(std::unique_lock<std::mutex>& lock, std::uint64_t key);

  template <typename Predicate>
  void wait_key(std::unique_lock<std::mutex>& lock, std::uint64_t key,
                Predicate predicate) {
    while (!predicate()) wait_key(lock, key);
  }

  /// Wake every registered waiter (cv waiters and parked fibers). Must be
  /// called while holding the mutex the waiters registered under; safe
  /// from plain threads and fibers alike.
  void notify_all();

  /// Wake only the waiters registered under `key` (plus any-key waiters).
  /// Same locking discipline as notify_all.
  void notify_key(std::uint64_t key);

 private:
  std::condition_variable cv_;
  std::vector<std::pair<Fiber*, std::uint64_t>> fibers_;
  std::multiset<std::uint64_t> cv_keys_;  // keys of blocked cv waiters
};

class TaskPool;

/// Runs N spawned fibers to completion on M TaskPool workers (M << N).
/// Usage: construct, spawn() every fiber, then run() once; run() blocks
/// the caller until all fibers finish. Not reusable after run().
class FiberScheduler {
 public:
  struct Options {
    /// Carrier workers; <= 0 means one per hardware thread.
    int workers = 0;
    /// Usable stack bytes per fiber (rounded up to whole pages); 0 means
    /// the 256 KiB default. Stacks are mmap'd with a guard page below
    /// and recycled through a process-wide free list, so only the pages
    /// a rank actually touches ever become resident. Very large runs
    /// (>= 8192 fibers) drop the per-stack guard pages and carve stacks
    /// from shared slabs instead, keeping the kernel VMA count far below
    /// vm.max_map_count at 45K+ fibers.
    std::size_t stack_bytes = 0;
  };

  FiberScheduler();
  explicit FiberScheduler(Options options);
  ~FiberScheduler();

  FiberScheduler(const FiberScheduler&) = delete;
  FiberScheduler& operator=(const FiberScheduler&) = delete;

  /// Per-fiber carrier-side hooks, run on the worker thread that hosts
  /// the fiber: on_resume immediately before every switch-in, on_suspend
  /// immediately after every switch-out (including the final one). The
  /// SPMD runtime uses them to migrate a rank's thread-local state with
  /// its continuation.
  struct Hooks {
    std::function<void()> on_resume;
    std::function<void()> on_suspend;
  };

  /// Create a runnable fiber. Must be called before run().
  void spawn(std::function<void()> body, Hooks hooks = {});

  /// Run every spawned fiber to completion. Blocks the calling thread
  /// (which does not itself carry fibers).
  void run();

  /// Resolved worker count.
  int workers() const { return workers_; }

  /// Number of fibers spawned so far.
  std::size_t size() const { return fibers_.size(); }

  /// Make a parked (or parking) fiber runnable again on its home queue.
  /// Called by WaitSet::notify_all; safe from any thread. Calls on fibers
  /// that are already ready/running/finished are ignored.
  void wake(Fiber* fiber);

  /// Scheduler counters, summed over the carriers. Each carrier counts in
  /// plain integers of its own; run() adds them up after the carriers
  /// have joined, so read them after run() returns.
  struct Stats {
    std::uint64_t resumes = 0;     ///< switches into a fiber
    std::uint64_t steals = 0;      ///< fibers taken from another queue
    std::uint64_t idle_waits = 0;  ///< sleeps with every queue empty
  };
  const Stats& stats() const { return stats_; }

  /// Stacks parked in the process-wide free list, in bytes (test hook).
  static std::size_t pooled_stack_bytes();

 private:
  friend class Fiber;
  friend class WaitSet;

  struct Carrier;

  void carrier_main(int index);
  Fiber* steal(int thief);
  Fiber* wait_for_work(int index);
  void resume(Fiber* fiber);
  void enqueue(Fiber* fiber);

  int workers_ = 1;
  std::size_t stack_bytes_ = 0;
  // Whether stacks get a PROT_NONE guard page. run() turns this off for
  // very large fiber counts, where the 2-VMAs-per-guarded-stack cost
  // would exhaust vm.max_map_count (see fiber.cpp).
  bool guard_stacks_ = true;

  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<std::unique_ptr<Carrier>> queues_;  // one per carrier
  std::atomic<std::size_t> finished_{0};

  // Idle carriers sleep on idle_cv_. An enqueuer notifies only when
  // sleepers_ > 0; a sleeper counts itself in and re-checks every queue
  // under idle_mutex_ before it waits, so no wakeup is lost.
  std::mutex idle_mutex_;
  std::condition_variable idle_cv_;
  std::atomic<int> sleepers_{0};
  bool stop_ = false;  // under idle_mutex_: every fiber finished

  Stats stats_;
  std::unique_ptr<TaskPool> carriers_;
};

}  // namespace insitu::exec
