#include "exec/fiber.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include <sys/mman.h>
#include <unistd.h>

#include "exec/task_pool.hpp"

#if !defined(__x86_64__)
#include <ucontext.h>
#endif
#if INSITU_EXEC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#if INSITU_EXEC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif

namespace insitu::exec {

namespace {

constexpr std::size_t kDefaultStackBytes = 256 * 1024;

thread_local Fiber* t_current_fiber = nullptr;

std::size_t page_size() {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t page = page_size();
  return (bytes + page - 1) / page * page;
}

// ---- stack cache ----
//
// Fiber stacks are mmap'd (one guard page below the usable range; the
// stack grows down into it) rather than drawn from pal::buffer_pool: a
// vector-backed pool would memset-commit the full stack on resize —
// gigabytes of touched pages at 45K ranks — while MAP_NORESERVE plus
// lazy faulting commits only what each rank actually uses. Retired
// stacks go to a process-wide free list keyed by size, with
// madvise(MADV_DONTNEED) returning their pages to the OS, so a long
// run's RSS tracks live stack usage, not cumulative fiber count.

struct StackCache {
  std::mutex mutex;
  // usable-size -> blocks (block = guard page + usable pages)
  std::map<std::size_t, std::vector<void*>> free_blocks;
  std::size_t pooled_bytes = 0;
  // Guardless-slab fallback (see acquire_stack_block): current slab
  // carve-out state, one entry per block size in use.
  struct Slab {
    char* next = nullptr;
    char* end = nullptr;
  };
  std::map<std::size_t, Slab> slabs;
  bool guardless = false;
};

constexpr int kSlabBlocks = 64;  // stacks carved per guardless slab

// Above this many fibers a scheduler requests guardless slab stacks up
// front: 2 VMAs x fibers would otherwise brush against vm.max_map_count
// (default 65530) somewhere past ~32K concurrent stacks.
constexpr std::size_t kGuardlessFiberThreshold = 8192;

StackCache& stack_cache() {
  static StackCache* cache = new StackCache();  // leaked: process lifetime
  return *cache;
}

/// Carves one block out of the current guardless slab for `usable`,
/// mapping a fresh slab when the current one is exhausted. Caller holds
/// cache.mutex. Returns nullptr if the slab mmap itself fails.
void* acquire_from_slab(StackCache& cache, std::size_t usable) {
  const std::size_t block_bytes = page_size() + usable;
  StackCache::Slab& slab = cache.slabs[usable];
  if (slab.next == slab.end) {
    void* mem =
        ::mmap(nullptr, block_bytes * kSlabBlocks, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (mem == MAP_FAILED) return nullptr;
    slab.next = static_cast<char*>(mem);
    slab.end = slab.next + block_bytes * kSlabBlocks;
  }
  char* block = slab.next;
  slab.next += block_bytes;
  return block;
}

/// Returns the block base. Usable stack is [base + page, base + page +
/// usable); with `guard` the base page is PROT_NONE so an overrun faults
/// instead of silently corrupting a neighbouring allocation.
///
/// Every guarded stack costs two kernel VMAs (the mprotect splits the
/// mapping), so tens of thousands of concurrent fibers exhaust
/// vm.max_map_count (default 65530) long before they exhaust memory.
/// Callers that know they will host that many fibers pass guard=false
/// and blocks are carved kSlabBlocks at a time from shared slabs — one
/// VMA per slab — trading per-fiber overflow detection for a ~128x
/// smaller map-table footprint.
void* acquire_stack_block(std::size_t usable, bool guard) {
  StackCache& cache = stack_cache();
  {
    std::lock_guard<std::mutex> lock(cache.mutex);
    auto it = cache.free_blocks.find(usable);
    if (it != cache.free_blocks.end() && !it->second.empty()) {
      void* block = it->second.back();
      it->second.pop_back();
      cache.pooled_bytes -= usable;
      return block;
    }
    if (!guard || cache.guardless) {
      void* block = acquire_from_slab(cache, usable);
      if (block != nullptr) return block;
      std::fprintf(stderr,
                   "fiber: mmap of a %d-stack slab (%zu-byte stacks) failed; "
                   "out of address space or vm.max_map_count\n",
                   kSlabBlocks, usable);
      std::abort();
    }
  }
  const std::size_t page = page_size();
  void* block = ::mmap(nullptr, page + usable, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (block == MAP_FAILED) {
    // Likely the VMA table, not memory: fall back to guardless slabs for
    // the rest of the process. (If the table is already full this mmap
    // fails too and we abort with the message above.)
    std::lock_guard<std::mutex> lock(cache.mutex);
    if (!cache.guardless) {
      cache.guardless = true;
      std::fprintf(stderr,
                   "fiber: per-stack mmap failed; switching to guardless "
                   "slab stacks (check vm.max_map_count)\n");
    }
    block = acquire_from_slab(cache, usable);
    if (block == nullptr) {
      std::fprintf(stderr, "fiber: mmap of %zu-byte stack failed\n", usable);
      std::abort();
    }
    return block;
  }
  if (::mprotect(block, page, PROT_NONE) != 0) {
    // The split failed (usually the VMA table); the page stays writable,
    // so the stack simply has no guard. Stop splitting future stacks.
    std::lock_guard<std::mutex> lock(cache.mutex);
    cache.guardless = true;
  }
  return block;
}

void release_stack_block(void* block, std::size_t usable) {
  const std::size_t page = page_size();
  ::madvise(static_cast<char*>(block) + page, usable, MADV_DONTNEED);
  StackCache& cache = stack_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  cache.free_blocks[usable].push_back(block);
  cache.pooled_bytes += usable;
}

// ---- context switch ----
//
// Two internal functions hide the per-target switch:
//   make_context(stack, bytes, entry, arg) prepares a context on a fresh
//     stack that calls entry(arg) (which must never return) and returns
//     its handle;
//   switch_context(save, load) stores the running context's handle in
//     *save and resumes the context `load`.
// A handle is only valid until its context is resumed.

#if defined(__x86_64__)

// The handle is a stack pointer. switch_context pushes the System V
// callee-saved registers, MXCSR and the x87 control word on the outgoing
// stack, swaps stack pointers and pops the same from the incoming one —
// glibc's swapcontext does that too, plus an rt_sigprocmask syscall on
// every switch, which fibers never need. A fresh stack starts in
// insitu_exec_fiber_start with entry in r13 and arg in r12; its
// `.cfi_undefined rip` makes unwinders stop at the fiber's base.
extern "C" void insitu_exec_switch(void** save, void* load);
extern "C" void insitu_exec_fiber_start();

__asm__(R"(
  .pushsection .text
  .p2align 4
  .globl insitu_exec_switch
  .hidden insitu_exec_switch
  .type insitu_exec_switch, @function
insitu_exec_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw (%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size insitu_exec_switch, .-insitu_exec_switch

  .p2align 4
  .globl insitu_exec_fiber_start
  .hidden insitu_exec_fiber_start
  .type insitu_exec_fiber_start, @function
insitu_exec_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size insitu_exec_fiber_start, .-insitu_exec_fiber_start
  .popsection
)");

void* make_context(void* stack, std::size_t bytes, void (*entry)(void*),
                   void* arg) {
  // The frame insitu_exec_switch pops, lowest address first: x87 control
  // word, MXCSR, r15, r14, r13, r12, rbx, rbp, return address. The two
  // words above it keep rsp 16-byte aligned at the trampoline's call.
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack) + bytes) & ~std::uintptr_t{15};
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 11;
  std::uint16_t fpu_control = 0;
  std::uint32_t mxcsr = 0;
  __asm__ volatile("fnstcw %0" : "=m"(fpu_control));
  __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
  frame[0] = fpu_control;  // a new fiber starts in its carrier's FP mode
  frame[1] = mxcsr;
  frame[2] = 0;                                          // r15
  frame[3] = 0;                                          // r14
  frame[4] = reinterpret_cast<std::uintptr_t>(entry);    // r13
  frame[5] = reinterpret_cast<std::uintptr_t>(arg);      // r12
  frame[6] = 0;                                          // rbx
  frame[7] = 0;                                          // rbp
  frame[8] = reinterpret_cast<std::uintptr_t>(&insitu_exec_fiber_start);
  frame[9] = 0;
  frame[10] = 0;
  return frame;
}

inline void switch_context(void** save, void* load) {
  insitu_exec_switch(save, load);
}

#else  // !__x86_64__

// The handle is a ucontext_t*. A suspended context lives in the frame of
// the switch_context call that saved it; a fresh one sits at the top of
// its own stack, above the part makecontext hands to the fiber.

// makecontext passes only int arguments: pointers travel as 32-bit halves.
unsigned int high_half(const void* p) {
  return static_cast<unsigned int>(
      static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p)) >> 32);
}
unsigned int low_half(const void* p) {
  return static_cast<unsigned int>(reinterpret_cast<std::uintptr_t>(p) &
                                   0xffffffffu);
}
void* join_halves(unsigned int hi, unsigned int lo) {
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(
      (static_cast<std::uint64_t>(hi) << 32) | lo));
}

void ucontext_start(unsigned int entry_hi, unsigned int entry_lo,
                    unsigned int arg_hi, unsigned int arg_lo) {
  auto* entry =
      reinterpret_cast<void (*)(void*)>(join_halves(entry_hi, entry_lo));
  entry(join_halves(arg_hi, arg_lo));
}

void* make_context(void* stack, std::size_t bytes, void (*entry)(void*),
                   void* arg) {
  const std::size_t reserve = (sizeof(ucontext_t) + 63) & ~std::size_t{63};
  auto* context = reinterpret_cast<ucontext_t*>(static_cast<char*>(stack) +
                                                bytes - reserve);
  ::getcontext(context);
  context->uc_stack.ss_sp = stack;
  context->uc_stack.ss_size = bytes - reserve;
  context->uc_link = nullptr;  // entry never returns
  const auto* entry_address = reinterpret_cast<const void*>(entry);
  ::makecontext(context, reinterpret_cast<void (*)()>(&ucontext_start), 4,
                high_half(entry_address), low_half(entry_address),
                high_half(arg), low_half(arg));
  return context;
}

void switch_context(void** save, void* load) {
  ucontext_t here;
  *save = &here;
  ::swapcontext(&here, static_cast<ucontext_t*>(load));
}

#endif  // __x86_64__

}  // namespace

Fiber* current_fiber() { return t_current_fiber; }

void Fiber::entry(void* arg) {
  auto* fiber = static_cast<Fiber*>(arg);
#if INSITU_EXEC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(nullptr, &fiber->asan_carrier_bottom_,
                                  &fiber->asan_carrier_size_);
#endif
  fiber->body_();
  fiber->body_ = nullptr;  // release captured state while still alive
  fiber->state_.store(State::kFinished, std::memory_order_release);
  fiber->suspend();
  std::abort();  // unreachable: the carrier never resumes a finished fiber
}

void Fiber::suspend() {
#if INSITU_EXEC_TSAN_FIBERS
  __tsan_switch_to_fiber(tsan_parent_, 0);
#endif
#if INSITU_EXEC_ASAN_FIBERS
  // A finished fiber passes no fake-stack slot, so ASan frees its frames.
  const bool finished =
      state_.load(std::memory_order_relaxed) == State::kFinished;
  __sanitizer_start_switch_fiber(finished ? nullptr : &asan_fake_stack_,
                                 asan_carrier_bottom_, asan_carrier_size_);
#endif
  switch_context(&context_, carrier_context_);
#if INSITU_EXEC_ASAN_FIBERS
  // Resumed, possibly by another carrier: learn that carrier's stack.
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_carrier_bottom_,
                                  &asan_carrier_size_);
#endif
}

// ---- WaitSet ----

void WaitSet::wait_key(std::unique_lock<std::mutex>& lock,
                       std::uint64_t key) {
  Fiber* fiber = t_current_fiber;
  if (fiber == nullptr) {
    // The waiter's key stays registered while it blocks so notify_key can
    // skip the condition variable entirely when no thread waiter matches.
    // Insert/erase both run under the caller's mutex; cv_.wait reacquires
    // it before returning.
    const auto it = cv_keys_.insert(key);
    cv_.wait(lock);
    cv_keys_.erase(it);
    return;
  }
  // Register under the caller's mutex: any notify after our unlock runs
  // with the mutex held, so it observes both the registration and the
  // kParking state, and resolves the park/wake race through the CAS
  // protocol in FiberScheduler::wake / resume.
  fibers_.emplace_back(fiber, key);
  fiber->state_.store(Fiber::State::kParking, std::memory_order_release);
  lock.unlock();
  fiber->suspend();  // resumes here once a waker re-enqueued us
  lock.lock();
}

void WaitSet::notify_all() { notify_key(kAnyKey); }

void WaitSet::notify_key(std::uint64_t key) {
  if (!cv_keys_.empty() &&
      (key == kAnyKey || cv_keys_.count(key) > 0 ||
       cv_keys_.count(kAnyKey) > 0)) {
    // One condition variable serves every thread waiter; wake them all
    // and let non-matching ones re-wait (spurious wakeups are already
    // part of the contract).
    cv_.notify_all();
  }
  if (fibers_.empty()) return;
  if (key == kAnyKey) {
    std::vector<std::pair<Fiber*, std::uint64_t>> to_wake;
    to_wake.swap(fibers_);
    for (const auto& [fiber, k] : to_wake) fiber->scheduler()->wake(fiber);
    return;
  }
  std::vector<Fiber*> to_wake;
  auto keep = fibers_.begin();
  for (auto it = fibers_.begin(); it != fibers_.end(); ++it) {
    if (it->second == key || it->second == kAnyKey) {
      to_wake.push_back(it->first);
    } else {
      *keep++ = *it;
    }
  }
  fibers_.erase(keep, fibers_.end());
  for (Fiber* fiber : to_wake) fiber->scheduler()->wake(fiber);
}

// ---- FiberScheduler ----

/// One carrier's run queue and counters. The queue is shared (wakers
/// push, thieves pop) and guarded by `mutex`; the counters are written
/// only by the owning carrier thread.
struct alignas(64) FiberScheduler::Carrier {
  std::mutex mutex;
  std::deque<Fiber*> ready;
  Stats stats;

  Fiber* pop_front() {
    std::lock_guard<std::mutex> lock(mutex);
    if (ready.empty()) return nullptr;
    Fiber* fiber = ready.front();
    ready.pop_front();
    return fiber;
  }

  Fiber* pop_back() {
    std::lock_guard<std::mutex> lock(mutex);
    if (ready.empty()) return nullptr;
    Fiber* fiber = ready.back();
    ready.pop_back();
    return fiber;
  }
};

FiberScheduler::FiberScheduler() : FiberScheduler(Options{}) {}

FiberScheduler::FiberScheduler(Options options) {
  workers_ = options.workers > 0
                 ? options.workers
                 : static_cast<int>(
                       std::max(1u, std::thread::hardware_concurrency()));
  stack_bytes_ = round_up_pages(
      options.stack_bytes > 0 ? options.stack_bytes : kDefaultStackBytes);
}

FiberScheduler::~FiberScheduler() = default;

void FiberScheduler::spawn(std::function<void()> body, Hooks hooks) {
  auto fiber = std::make_unique<Fiber>();
  fiber->body_ = std::move(body);
  fiber->on_resume_ = std::move(hooks.on_resume);
  fiber->on_suspend_ = std::move(hooks.on_suspend);
  fiber->scheduler_ = this;
  fibers_.push_back(std::move(fiber));
}

void FiberScheduler::run() {
  if (fibers_.empty()) return;
  guard_stacks_ = fibers_.size() < kGuardlessFiberThreshold;
  const std::size_t n = fibers_.size();
  const std::size_t carriers =
      std::min<std::size_t>(static_cast<std::size_t>(workers_), n);
  // Home blocks: spawn index i lives on carrier i * carriers / n, so
  // neighbouring ranks — which meet in the same collective leaf slot —
  // run on the same carrier instead of contending across carriers.
  for (std::size_t c = 0; c < carriers; ++c) {
    queues_.push_back(std::make_unique<Carrier>());
  }
  for (std::size_t i = 0; i < n; ++i) {
    Fiber& fiber = *fibers_[i];
    fiber.home_ = static_cast<int>(i * carriers / n);
    queues_[static_cast<std::size_t>(fiber.home_)]->ready.push_back(&fiber);
  }
  carriers_ = std::make_unique<TaskPool>(static_cast<int>(carriers));
  for (std::size_t c = 0; c < carriers; ++c) {
    carriers_->submit([this, c] { carrier_main(static_cast<int>(c)); });
  }
  carriers_->shutdown();  // returns once every carrier saw stop_
  carriers_.reset();
  for (const auto& queue : queues_) {
    stats_.resumes += queue->stats.resumes;
    stats_.steals += queue->stats.steals;
    stats_.idle_waits += queue->stats.idle_waits;
  }
}

void FiberScheduler::carrier_main(int index) {
  Carrier& own = *queues_[static_cast<std::size_t>(index)];
  for (;;) {
    Fiber* fiber = own.pop_front();
    if (fiber == nullptr) fiber = steal(index);
    if (fiber == nullptr) fiber = wait_for_work(index);
    if (fiber == nullptr) return;  // every fiber finished
    ++own.stats.resumes;
    resume(fiber);
  }
}

Fiber* FiberScheduler::steal(int thief) {
  // Take from the back: the owner pops the front, so thief and owner
  // work on opposite ends of the victim's rank block.
  const std::size_t carriers = queues_.size();
  const auto self = static_cast<std::size_t>(thief);
  for (std::size_t k = 1; k < carriers; ++k) {
    if (Fiber* fiber = queues_[(self + k) % carriers]->pop_back()) {
      ++queues_[self]->stats.steals;
      return fiber;
    }
  }
  return nullptr;
}

Fiber* FiberScheduler::wait_for_work(int index) {
  Carrier& own = *queues_[static_cast<std::size_t>(index)];
  std::unique_lock<std::mutex> lock(idle_mutex_);
  // Count in before re-checking the queues. An enqueuer pushes, then
  // reads sleepers_; whichever of the two queue-mutex critical sections
  // runs second sees the other side's write, so either this re-check
  // finds the fiber or the enqueuer sees a sleeper and notifies — which
  // it can only do once this carrier is waiting, because it must take
  // idle_mutex_ first.
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  Fiber* fiber = nullptr;
  while (!stop_) {
    fiber = own.pop_front();
    if (fiber == nullptr) fiber = steal(index);
    if (fiber != nullptr) break;
    ++own.stats.idle_waits;
    idle_cv_.wait(lock);
  }
  sleepers_.fetch_sub(1, std::memory_order_seq_cst);
  return fiber;
}

void FiberScheduler::resume(Fiber* fiber) {
  if (fiber->context_ == nullptr) {
    // First run: allocate the stack and arm the entry trampoline.
    fiber->stack_bytes_ = stack_bytes_;
    fiber->stack_block_ = acquire_stack_block(stack_bytes_, guard_stacks_);
    void* stack = static_cast<char*>(fiber->stack_block_) + page_size();
#if INSITU_EXEC_ASAN_FIBERS
    // A recycled stack still carries the poisoned redzones of frames its
    // last fiber never returned from.
    __asan_unpoison_memory_region(stack, stack_bytes_);
#endif
    fiber->context_ = make_context(stack, stack_bytes_, &Fiber::entry, fiber);
#if INSITU_EXEC_TSAN_FIBERS
    fiber->tsan_fiber_ = __tsan_create_fiber(0);
#endif
  }

  fiber->state_.store(Fiber::State::kRunning, std::memory_order_relaxed);
  if (fiber->on_resume_) fiber->on_resume_();
  t_current_fiber = fiber;
#if INSITU_EXEC_TSAN_FIBERS
  fiber->tsan_parent_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(fiber->tsan_fiber_, 0);
#endif
#if INSITU_EXEC_ASAN_FIBERS
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(
      &fake_stack, static_cast<char*>(fiber->stack_block_) + page_size(),
      fiber->stack_bytes_);
#endif
  // Fibers migrate between carriers: the fiber switches back to the
  // context saved here, never a stale one from a previous carrier.
  switch_context(&fiber->carrier_context_, fiber->context_);
#if INSITU_EXEC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  // Back on the carrier: the fiber either parked or finished.
  t_current_fiber = nullptr;
  if (fiber->on_suspend_) fiber->on_suspend_();

  if (fiber->state_.load(std::memory_order_acquire) ==
      Fiber::State::kFinished) {
#if INSITU_EXEC_TSAN_FIBERS
    __tsan_destroy_fiber(fiber->tsan_fiber_);
    fiber->tsan_fiber_ = nullptr;
#endif
    release_stack_block(fiber->stack_block_, fiber->stack_bytes_);
    fiber->stack_block_ = nullptr;
    if (finished_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        fibers_.size()) {
      std::lock_guard<std::mutex> lock(idle_mutex_);
      stop_ = true;
      idle_cv_.notify_all();
    }
    return;
  }

  // The fiber announced a park (kParking). Complete it: publish kParked
  // so a waker both flips the state and enqueues. If a waker already
  // flipped kParking to kReady, the notify landed before the switch-out
  // finished and the enqueue is on us.
  Fiber::State expected = Fiber::State::kParking;
  if (!fiber->state_.compare_exchange_strong(expected, Fiber::State::kParked,
                                             std::memory_order_acq_rel)) {
    enqueue(fiber);
  }
}

void FiberScheduler::wake(Fiber* fiber) {
  Fiber::State state = fiber->state_.load(std::memory_order_acquire);
  for (;;) {
    switch (state) {
      case Fiber::State::kParked:
        // Fully switched out: make it ready and hand it to a carrier.
        if (fiber->state_.compare_exchange_weak(state, Fiber::State::kReady,
                                                std::memory_order_acq_rel)) {
          enqueue(fiber);
          return;
        }
        break;  // state reloaded; re-dispatch
      case Fiber::State::kParking:
        // Still unwinding onto its carrier: flip the state; that carrier
        // sees its park CAS fail and does the enqueue itself.
        if (fiber->state_.compare_exchange_weak(state, Fiber::State::kReady,
                                                std::memory_order_acq_rel)) {
          return;
        }
        break;
      default:
        return;  // kReady / kRunning / kFinished: spurious notify
    }
  }
}

void FiberScheduler::enqueue(Fiber* fiber) {
  Carrier& home = *queues_[static_cast<std::size_t>(fiber->home_)];
  {
    std::lock_guard<std::mutex> lock(home.mutex);
    home.ready.push_back(fiber);
  }
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> lock(idle_mutex_);
    idle_cv_.notify_one();
  }
}

std::size_t FiberScheduler::pooled_stack_bytes() {
  StackCache& cache = stack_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.pooled_bytes;
}

}  // namespace insitu::exec
