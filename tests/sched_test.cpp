// M:N scheduler tests: rank-count > worker-count multiplexing,
// threads/mn result equivalence, seed-replay determinism, large-rank
// collective completion, thread-local migration (spans, memory
// trackers), fiber edge cases (exceptions, floating-point mode, stack
// alignment and depth), scheduler counters, and the bench-side
// ranks=/sched= parsing. The whole binary also runs (repeated) under the
// TSan CI job; SchedTest.TsanStressManyRanksFewWorkers and
// SchedTest.StealAndCrossCarrierWakeStress are the dedicated stressors.

#include <gtest/gtest.h>

#include <atomic>
#include <cfenv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "comm/runtime.hpp"
#include "comm/sched.hpp"
#include "exec/fiber.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::comm {
namespace {

Runtime::Options mn_options(int workers) {
  Runtime::Options options;
  options.sched.backend = SchedBackend::kMn;
  options.sched.workers = workers;
  return options;
}

/// A pipeline-shaped workload touching every blocking primitive: compute
/// skew, p2p ring traffic, reductions, a barrier, and a gather.
void mixed_workload(Communicator& comm, std::vector<double>* rank_times,
                    std::atomic<int>* failures) {
  const int rank = comm.rank();
  const int size = comm.size();
  comm.advance_compute(0.001 * (rank % 7));

  // Ring: send to the right, receive from the left.
  const std::vector<double> payload(8, static_cast<double>(rank));
  comm.send(
      (rank + 1) % size, 17,
      std::as_bytes(std::span<const double>(payload)));
  const std::vector<std::byte> got = comm.recv((rank + size - 1) % size, 17);
  double first = 0.0;
  std::memcpy(&first, got.data(), sizeof first);
  if (first != static_cast<double>((rank + size - 1) % size)) ++(*failures);

  const long sum =
      comm.allreduce_value(static_cast<long>(rank), ReduceOp::kSum);
  if (sum != static_cast<long>(size) * (size - 1) / 2) ++(*failures);

  comm.barrier();
  const std::vector<double> mine{static_cast<double>(rank)};
  (void)comm.gatherv(std::span<const double>(mine), 0);

  if (rank_times != nullptr) {
    (*rank_times)[static_cast<std::size_t>(rank)] = comm.clock().now();
  }
}

TEST(SchedTest, ManyRanksFewWorkersCompletes) {
  const int ranks = 64;
  std::vector<double> times(static_cast<std::size_t>(ranks), 0.0);
  std::atomic<int> failures{0};
  const RunReport report =
      Runtime::run(ranks, mn_options(/*workers=*/2), [&](Communicator& comm) {
        mixed_workload(comm, &times, &failures);
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(failures.load(), 0);
  for (const double t : times) EXPECT_GT(t, 0.0);
}

TEST(SchedTest, MatchesThreadBackendBitExactly) {
  for (const int ranks : {4, 16, 64}) {
    std::vector<double> threads_times(static_cast<std::size_t>(ranks), 0.0);
    std::vector<double> mn_times(static_cast<std::size_t>(ranks), 0.0);
    std::atomic<int> failures{0};

    Runtime::Options threads_options;
    threads_options.sched.backend = SchedBackend::kThreads;
    Runtime::run(ranks, threads_options, [&](Communicator& comm) {
      mixed_workload(comm, &threads_times, &failures);
    });
    Runtime::run(ranks, mn_options(2), [&](Communicator& comm) {
      mixed_workload(comm, &mn_times, &failures);
    });

    EXPECT_EQ(failures.load(), 0);
    // Bit-identical, not approximately equal: scheduling must not leak
    // into virtual time.
    EXPECT_EQ(threads_times, mn_times) << "at " << ranks << " ranks";
  }
}

TEST(SchedTest, SeedReplayIsDeterministic) {
  const int ranks = 32;
  std::vector<std::vector<double>> replays;
  for (int replay = 0; replay < 2; ++replay) {
    std::vector<double> times(static_cast<std::size_t>(ranks), 0.0);
    std::atomic<int> failures{0};
    Runtime::Options options = mn_options(3);
    options.seed = 99;
    Runtime::run(ranks, options, [&](Communicator& comm) {
      // Rng-dependent compute makes any cross-rank rng mixup visible.
      comm.advance_compute(0.0001 * comm.rng().next_double());
      mixed_workload(comm, &times, &failures);
    });
    EXPECT_EQ(failures.load(), 0);
    replays.push_back(times);
  }
  EXPECT_EQ(replays[0], replays[1]);
}

TEST(SchedTest, CollectivesCompleteAtThousandRanks) {
  const int ranks = 1024;
  std::atomic<int> failures{0};
  const RunReport report =
      Runtime::run(ranks, mn_options(4), [&](Communicator& comm) {
        const long sum = comm.allreduce_value(
            static_cast<long>(comm.rank()), ReduceOp::kSum);
        if (sum != static_cast<long>(ranks) * (ranks - 1) / 2) ++failures;
        comm.barrier();
        int v = comm.rank() == 0 ? 31337 : -1;
        comm.broadcast_value(v, 0);
        if (v != 31337) ++failures;
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(failures.load(), 0);
}

// The TSan job's dedicated stressor: many fibers ping-ponging across few
// carriers maximizes migrations and park/wake races. Kept smaller than
// the functional tests so instrumented runs stay fast.
TEST(SchedTest, TsanStressManyRanksFewWorkers) {
  const int ranks = 48;
  std::atomic<int> failures{0};
  for (int round = 0; round < 3; ++round) {
    Runtime::Options options = mn_options(2);
    options.seed = 7 + static_cast<std::uint64_t>(round);
    const RunReport report =
        Runtime::run(ranks, options, [&](Communicator& comm) {
          mixed_workload(comm, nullptr, &failures);
        });
    EXPECT_FALSE(report.failed);
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(SchedTest, SpansSurviveWorkerMigration) {
  const int ranks = 16;
  Runtime::Options options = mn_options(2);
  options.observe.trace = true;
  std::atomic<int> failures{0};
  const RunReport report =
      Runtime::run(ranks, options, [&](Communicator& comm) {
        mixed_workload(comm, nullptr, &failures);
      });
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(report.trace.nranks, ranks);
  // Every rank recorded comm spans, attributed to itself, with sane
  // nesting depths — even though its continuation migrated carriers.
  std::vector<int> spans_per_rank(static_cast<std::size_t>(ranks), 0);
  for (const obs::TraceEvent& e : report.trace.events) {
    ASSERT_GE(e.rank, 0);
    ASSERT_LT(e.rank, ranks);
    EXPECT_GE(e.depth, 0);
    ++spans_per_rank[static_cast<std::size_t>(e.rank)];
  }
  for (const int n : spans_per_rank) EXPECT_GT(n, 0);
}

TEST(SchedTest, MemoryChargesFollowTheRank) {
  const int ranks = 8;
  const RunReport report =
      Runtime::run(ranks, mn_options(2), [&](Communicator& comm) {
        // Rank r holds (r+1) KiB live across a blocking point.
        const std::size_t bytes =
            static_cast<std::size_t>(comm.rank() + 1) * 1024;
        pal::TrackedBytes tracked(bytes);
        comm.barrier();
      });
  for (const RankStats& r : report.ranks) {
    EXPECT_GE(r.mem_high_water,
              static_cast<std::size_t>(r.rank + 1) * 1024)
        << "rank " << r.rank;
    EXPECT_EQ(r.mem_final, 0u) << "rank " << r.rank;
  }
}

TEST(SchedTest, FiberStacksAreRecycled) {
  Runtime::run(32, mn_options(2), [](Communicator& comm) { comm.barrier(); });
  // After a run every retired stack sits in the process-wide free list.
  EXPECT_GT(exec::FiberScheduler::pooled_stack_bytes(), 0u);
  const std::size_t before = exec::FiberScheduler::pooled_stack_bytes();
  Runtime::run(32, mn_options(2), [](Communicator& comm) { comm.barrier(); });
  // The second run reuses the first run's stacks instead of growing the
  // pool.
  EXPECT_EQ(exec::FiberScheduler::pooled_stack_bytes(), before);
}

/// A counter's value; 0 when the series is absent (zero counters are
/// not published).
double metric_value(const RunReport& report, const std::string& key) {
  for (const obs::MetricSample& sample : report.metrics) {
    if (sample.key == key) return sample.value;
  }
  return 0.0;
}

TEST(SchedTest, SchedulerCountersPublishedUnderMn) {
  const int ranks = 64;
  for (const int workers : {4, 1}) {
    std::atomic<int> failures{0};
    const RunReport report =
        Runtime::run(ranks, mn_options(workers), [&](Communicator& comm) {
          mixed_workload(comm, nullptr, &failures);
        });
    EXPECT_EQ(failures.load(), 0);
    // Every fiber is switched into at least once.
    EXPECT_GE(metric_value(report, "exec.sched.resumes"), ranks)
        << "workers=" << workers;
    if (workers == 1) {
      EXPECT_EQ(metric_value(report, "exec.sched.steals"), 0.0);
    }
  }
  Runtime::Options threads;
  threads.sched.backend = SchedBackend::kThreads;
  const RunReport report =
      Runtime::run(4, threads, [](Communicator& comm) { comm.barrier(); });
  for (const obs::MetricSample& sample : report.metrics) {
    EXPECT_NE(sample.key.rfind("exec.sched.", 0), 0u) << sample.key;
  }
}

// ---- fiber edge cases, driven on the scheduler directly ----

exec::FiberScheduler::Options four_carriers() {
  exec::FiberScheduler::Options options;
  options.workers = 4;
  return options;
}

void spin_for(std::chrono::microseconds duration) {
  const auto until = std::chrono::steady_clock::now() + duration;
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Reusable rendezvous for fibers: every arrival but the last parks on
/// the WaitSet until the generation turns over.
class FiberBarrier {
 public:
  explicit FiberBarrier(int parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const long generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      waiters_.notify_all();
      return;
    }
    waiters_.wait(lock, [&] { return generation_ != generation; });
  }

 private:
  const int parties_;
  std::mutex mutex_;
  exec::WaitSet waiters_;
  int arrived_ = 0;
  long generation_ = 0;
};

// A fiber parks until it resumes on a different carrier thread, then
// throws and catches: the unwinder must walk a stack that was switched
// out on one thread and back in on another.
TEST(FiberEdgeCases, ExceptionCaughtAfterMigration) {
  constexpr int kFibers = 16;  // fibers 0..3 share carrier 0's home block
  exec::FiberScheduler sched(four_carriers());
  exec::WaitSet ws;
  std::mutex m;
  long tick = 0;  // guarded by m
  std::atomic<bool> done{false};
  bool migrated = false;
  std::string caught;
  // Written by the carrier right before each switch-in (a fiber cannot
  // ask for its own thread id: pthread_self() is a const function, so
  // the compiler may reuse a value read before a migration).
  std::vector<std::thread::id> carrier(kFibers);

  const auto park_once = [&] {
    std::unique_lock<std::mutex> lock(m);
    const long seen = tick;
    ws.wait(lock, [&] { return tick != seen || done.load(); });
  };
  for (int i = 0; i < kFibers; ++i) {
    exec::FiberScheduler::Hooks hooks;
    hooks.on_resume = [&carrier, i] {
      carrier[static_cast<std::size_t>(i)] = std::this_thread::get_id();
    };
    sched.spawn(
        [&, i] {
          if (i == 0) {
            const std::thread::id first = carrier[0];
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(20);
            while (carrier[0] == first &&
                   std::chrono::steady_clock::now() < deadline) {
              park_once();
            }
            migrated = carrier[0] != first;
            try {
              throw std::runtime_error("after migration");
            } catch (const std::runtime_error& e) {
              caught = e.what();
            }
            done = true;
          } else if (i < 4) {
            // Keep the home carrier busy so a woken fiber 0 waits in its
            // queue and an idle carrier steals it.
            while (!done.load()) {
              spin_for(std::chrono::microseconds(100));
              park_once();
            }
          }
        },
        std::move(hooks));
  }
  std::thread ticker([&] {
    while (!done.load()) {
      {
        std::lock_guard<std::mutex> lock(m);
        ++tick;
        ws.notify_all();
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    std::lock_guard<std::mutex> lock(m);
    ws.notify_all();
  });
  sched.run();
  ticker.join();
  EXPECT_TRUE(migrated);
  EXPECT_EQ(caught, "after migration");
}

// The floating-point mode is part of a fiber's context: a fiber that
// switches to upward rounding keeps it across parks and migrations, and
// neither its carriers nor the other fibers ever see it.
TEST(FiberEdgeCases, RoundingModeStaysWithItsFiber) {
  constexpr int kFibers = 16;
  constexpr int kRounds = 20;
  exec::FiberScheduler sched(four_carriers());
  FiberBarrier barrier(kFibers);
  std::atomic<int> carrier_leaks{0};
  std::atomic<int> fiber_errors{0};
  // SSE division reads MXCSR; fegetround() reads the x87 control word.
  volatile double one = 1.0;
  volatile double three = 3.0;
  const double nearest_third = one / three;
  for (int i = 0; i < kFibers; ++i) {
    exec::FiberScheduler::Hooks hooks;
    const auto check_carrier = [&] {
      if (std::fegetround() != FE_TONEAREST || one / three != nearest_third) {
        ++carrier_leaks;
      }
    };
    hooks.on_resume = check_carrier;
    hooks.on_suspend = check_carrier;
    sched.spawn(
        [&, i] {
          const bool upward = i % 2 == 0;
          if (upward) std::fesetround(FE_UPWARD);
          for (int r = 0; r < kRounds; ++r) {
            barrier.arrive_and_wait();
            const double third = one / three;
            if (std::fegetround() != (upward ? FE_UPWARD : FE_TONEAREST) ||
                (upward ? third <= nearest_third : third != nearest_third)) {
              ++fiber_errors;
            }
          }
          // Finish in upward mode: the final switch-out must restore the
          // carrier's own mode too.
        },
        std::move(hooks));
  }
  sched.run();
  EXPECT_EQ(carrier_leaks.load(), 0);
  EXPECT_EQ(fiber_errors.load(), 0);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

/// Formats through snprintf with `pad` bytes of this frame in use below
/// the caller, so the call runs near the bottom of a fiber stack.
[[gnu::noinline]] std::string format_below_pad() {
  volatile char pad[200 * 1024];
  for (std::size_t i = 0; i < sizeof pad; i += 4096) pad[i] = 1;
  pad[sizeof pad - 1] = 1;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%f", 3.25 + pad[0] - 1);
  return buf;
}

// printf's %f path uses aligned SSE stores on the stack: a misaligned
// initial frame crashes it in a fresh fiber, and a stack that is smaller
// than advertised crashes it in a deep one (256 KiB default, ~200 KiB
// used).
TEST(FiberEdgeCases, SnprintfOnFreshAndDeepStacks) {
  exec::FiberScheduler sched(four_carriers());
  std::string fresh;
  std::string deep;
  sched.spawn([&] {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%f", 2.5);
    fresh = buf;
  });
  sched.spawn([&] { deep = format_below_pad(); });
  sched.run();
  EXPECT_EQ(fresh, "2.500000");
  EXPECT_EQ(deep, "3.250000");
}

// Home block 0 computes without parking while every other rank parks
// and wakes repeatedly. Fiber 0 spins until the rest of its home block
// has finished, which only a steal by another carrier can bring about.
// Half of the parking ranks ping-pong with a partner fiber; the other
// half are woken only by plain threads, often while every carrier is
// asleep, so a lost wakeup between queues, sleepers and threads hangs
// the run.
TEST(SchedTest, StealAndCrossCarrierWakeStress) {
  constexpr int kFibers = 64;
  constexpr int kBlock = 16;  // home block of carrier 0 (64 fibers / 4)
  constexpr int kRounds = 30;
  exec::FiberScheduler sched(four_carriers());
  exec::WaitSet ws;
  std::mutex m;
  std::vector<char> waiting(kFibers, 0);  // guarded by m
  std::vector<char> granted(kFibers, 0);  // guarded by m
  std::atomic<int> block_done{0};
  std::atomic<int> parkers_done{0};
  std::atomic<bool> block_ok{true};
  const auto thread_woken = [](int rank) { return (rank / 2) % 2 == 1; };

  // Caller holds m.
  const auto grant = [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    if (waiting[r] != 0 && granted[r] == 0) {
      granted[r] = 1;
      ws.notify_key(static_cast<std::uint64_t>(rank));
    }
  };
  for (int i = 0; i < kBlock; ++i) {
    sched.spawn([&, i] {
      spin_for(std::chrono::microseconds(200));
      if (i != 0) {
        ++block_done;
        return;
      }
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (block_done.load() < kBlock - 1 &&
             std::chrono::steady_clock::now() < deadline) {
      }
      if (block_done.load() < kBlock - 1) block_ok = false;
    });
  }
  for (int i = kBlock; i < kFibers; ++i) {
    sched.spawn([&, i] {
      const auto me = static_cast<std::size_t>(i);
      for (int r = 0; r < kRounds; ++r) {
        std::unique_lock<std::mutex> lock(m);
        if (!thread_woken(i)) grant(i ^ 1);
        waiting[me] = 1;
        ws.wait_key(lock, static_cast<std::uint64_t>(i),
                    [&] { return granted[me] != 0; });
        granted[me] = 0;
        waiting[me] = 0;
      }
      ++parkers_done;
    });
  }
  // Threads grant every waiting rank: the only wakes the thread-woken
  // half gets, and the last wake of each ping-pong pair.
  std::vector<std::thread> wakers;
  for (int t = 0; t < 2; ++t) {
    wakers.emplace_back([&, t] {
      while (parkers_done.load() < kFibers - kBlock) {
        {
          std::lock_guard<std::mutex> lock(m);
          for (int i = kBlock + t; i < kFibers; i += 2) grant(i);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(20));
      }
    });
  }
  sched.run();
  for (auto& waker : wakers) waker.join();
  EXPECT_TRUE(block_ok.load());
  EXPECT_EQ(parkers_done.load(), kFibers - kBlock);
  EXPECT_GT(sched.stats().steals, 0u);
  EXPECT_GT(sched.stats().idle_waits, 0u);
  EXPECT_GE(sched.stats().resumes, static_cast<std::uint64_t>(kFibers));
}

// Keyed-wakeup semantics of exec::WaitSet on the plain-thread path (the
// fiber path is exercised end-to-end by every mn-backend test above).
// Predicates are flag-driven, so a waiter can only finish if its own
// flag was set — "the wrong waiter was woken" shows up as a hang on the
// final join, never as a flaky sleep-based assertion.
TEST(WaitSetKeys, NotifyKeyWakesOnlyMatchingWaiters) {
  exec::WaitSet ws;
  std::mutex m;
  bool flag1 = false;
  bool flag2 = false;
  std::atomic<bool> done1{false};
  std::atomic<bool> done2{false};
  std::thread t1([&] {
    std::unique_lock<std::mutex> lock(m);
    ws.wait_key(lock, 1, [&] { return flag1; });
    done1 = true;
  });
  std::thread t2([&] {
    std::unique_lock<std::mutex> lock(m);
    ws.wait_key(lock, 2, [&] { return flag2; });
    done2 = true;
  });
  {
    std::lock_guard<std::mutex> lock(m);
    flag2 = true;
    ws.notify_key(2);
  }
  t2.join();
  EXPECT_TRUE(done2.load());
  EXPECT_FALSE(done1.load());  // flag1 unset: t1 must still be parked
  {
    std::lock_guard<std::mutex> lock(m);
    flag1 = true;
    ws.notify_key(1);
  }
  t1.join();
  EXPECT_TRUE(done1.load());
}

TEST(WaitSetKeys, AnyKeyWaiterMatchesEveryNotify) {
  exec::WaitSet ws;
  std::mutex m;
  bool flag = false;
  std::atomic<bool> done{false};
  std::thread t([&] {
    std::unique_lock<std::mutex> lock(m);
    ws.wait_key(lock, exec::WaitSet::kAnyKey, [&] { return flag; });
    done = true;
  });
  {
    std::lock_guard<std::mutex> lock(m);
    flag = true;
    ws.notify_key(42);  // unrelated key must still wake an any-key waiter
  }
  t.join();
  EXPECT_TRUE(done.load());
}

TEST(WaitSetKeys, NotifyAllWakesEveryKey) {
  exec::WaitSet ws;
  std::mutex m;
  bool flag = false;
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (std::uint64_t key = 1; key <= 4; ++key) {
    waiters.emplace_back([&ws, &m, &flag, &done, key] {
      std::unique_lock<std::mutex> lock(m);
      ws.wait_key(lock, key, [&] { return flag; });
      ++done;
    });
  }
  {
    std::lock_guard<std::mutex> lock(m);
    flag = true;
    ws.notify_all();
  }
  for (auto& t : waiters) t.join();
  EXPECT_EQ(done.load(), 4);
}

TEST(SchedTest, BackendNamesRoundTrip) {
  EXPECT_EQ(parse_sched_backend("threads"), SchedBackend::kThreads);
  EXPECT_EQ(parse_sched_backend("mn"), SchedBackend::kMn);
  EXPECT_FALSE(parse_sched_backend("").has_value());
  EXPECT_FALSE(parse_sched_backend("fibers").has_value());
  EXPECT_STREQ(to_string(SchedBackend::kThreads), "threads");
  EXPECT_STREQ(to_string(SchedBackend::kMn), "mn");
}

TEST(SchedTest, ParseRanksListAcceptsValidLists) {
  std::string error;
  EXPECT_EQ(bench::parse_ranks_list("8", &error),
            std::vector<int>({8}));
  EXPECT_EQ(bench::parse_ranks_list("4,8,16", &error),
            std::vector<int>({4, 8, 16}));
  EXPECT_EQ(bench::parse_ranks_list("10240", &error),
            std::vector<int>({10240}));
}

TEST(SchedTest, ParseRanksListRejectsBadInput) {
  for (const char* bad :
       {"", "0", "-1", "4,-8", "4,0", "8x", "x8", " 8", "+8", "4,,8", "4,",
        "2147483648", "999999999999999999999", "3.5"}) {
    std::string error;
    EXPECT_FALSE(bench::parse_ranks_list(bad, &error).has_value())
        << "accepted '" << bad << "'";
    EXPECT_FALSE(error.empty()) << "no message for '" << bad << "'";
  }
}

}  // namespace
}  // namespace insitu::comm
