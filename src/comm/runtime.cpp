#include "comm/runtime.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "exec/fiber.hpp"
#include "kernels/kernels.hpp"
#include "obs/context.hpp"
#include "obs/live/telemetry_hub.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/log.hpp"
#include "pal/memory_tracker.hpp"

#include "comm/group_factory.hpp"

namespace insitu::comm {

double RunReport::max_virtual_seconds() const {
  double out = 0.0;
  for (const auto& r : ranks) out = std::max(out, r.virtual_seconds);
  return out;
}

double RunReport::mean_virtual_seconds() const {
  if (ranks.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : ranks) sum += r.virtual_seconds;
  return sum / static_cast<double>(ranks.size());
}

std::size_t RunReport::total_high_water_bytes() const {
  std::size_t sum = 0;
  for (const auto& r : ranks) sum += r.mem_high_water;
  return sum;
}

std::size_t RunReport::max_high_water_bytes() const {
  std::size_t out = 0;
  for (const auto& r : ranks) out = std::max(out, r.mem_high_water);
  return out;
}

RunReport Runtime::run(int nranks,
                       const Options& options,
                       const std::function<void(Communicator&)>& body) {
  RunReport report;
  report.ranks.resize(static_cast<std::size_t>(nranks));
  report.seed = options.seed;

  // Buffer-pool counters live in pal (which cannot see obs, so the pool
  // cannot publish its own metrics); snapshot them here and publish this
  // run's delta as pool.* series after the join. A tenant partition
  // replaces the process pool for the whole job. The kernel-dispatch
  // counters also live below obs, but they are per thread: every rank
  // thread adopts this run's sink, and under sched=mn the carriers (and,
  // under both backends, TaskPool helpers such as parallel_for chunks)
  // inherit it from the thread that submits them, so concurrent runs
  // each count only their own dispatches. The sink also carries the
  // run's kernel variant, so concurrent runs may dispatch different ones.
  pal::BufferPool& run_pool = options.tenant.pool != nullptr
                                  ? *options.tenant.pool
                                  : pal::buffer_pool();
  const pal::BufferPoolStats pool_start = run_pool.stats();
  kernels::StatsSink run_kernels(options.kernels);

  std::shared_ptr<detail::Group> world = detail::make_group(nranks, options.coll_arity);
  std::mutex failure_mutex;

  // Per-rank observability state, harvested after join. Each rank thread
  // writes only its own slot, so no synchronization is needed.
  std::vector<obs::MetricsSnapshot> rank_metrics(
      static_cast<std::size_t>(nranks));
  std::vector<std::vector<obs::TraceEvent>> rank_events(
      static_cast<std::size_t>(nranks));

  // Every rank charges a runtime-owned tracker (adopted for the duration
  // of its body) instead of the hosting thread's private one: under the
  // mn backend many ranks share each worker thread, and under both
  // backends this keeps the accounting identical. deque, not vector:
  // MemoryTracker holds atomics and cannot move.
  std::deque<pal::MemoryTracker> trackers(static_cast<std::size_t>(nranks));
  if (options.tenant.tracker != nullptr) {
    for (auto& tracker : trackers) tracker.set_parent(options.tenant.tracker);
  }

  auto rank_main = [&](int rank) {
    pal::set_thread_log_label("rank " + std::to_string(rank));

    VirtualClock clock;
    pal::Rng rng = pal::Rng(options.seed).split(static_cast<std::uint64_t>(rank));
    Communicator comm(world, rank, &clock, &options.machine, &rng);

    obs::MetricsRegistry metrics;
    std::unique_ptr<obs::TraceRecorder> recorder;
    if (options.observe.trace) {
      recorder = std::make_unique<obs::TraceRecorder>(rank);
    }
    // Live telemetry: hand the hub lock-free read access to this rank's
    // registry plus a flight-recorder ring fed by TraceScope. Both live
    // on this frame, so the source is unregistered before rank_main
    // returns (the hub then retains a ring snapshot for post-run dumps).
    obs::live::TelemetryHub* hub = options.observe.telemetry;
    std::unique_ptr<obs::live::FlightRecorder> flight;
    if (hub != nullptr) {
      flight = std::make_unique<obs::live::FlightRecorder>(
          rank, hub->options().flight_events);
    }
    obs::RankContext obs_ctx;
    obs_ctx.rank = rank;
    obs_ctx.metrics = options.observe.metrics ? &metrics : nullptr;
    obs_ctx.trace = recorder.get();
    obs_ctx.flight = flight.get();
    obs_ctx.virtual_now_fn = [](const void* c) {
      return static_cast<const VirtualClock*>(c)->now();
    };
    obs_ctx.virtual_clock = &clock;
    obs::ScopedRankContext scoped_ctx(obs_ctx);
    int hub_source = 0;
    if (hub != nullptr) {
      hub_source = hub->register_source(rank, options.tenant.label, &metrics,
                                        flight.get());
    }

    if (options.model_startup) {
      // Job launch + library init scales with job size (per-rank share of
      // a system-wide scan, e.g. Libsim's per-rank config file checks).
      clock.advance(options.machine.startup_per_rank * nranks);
    }

    try {
      body(comm);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      report.failed = true;
      if (report.failure_message.empty()) {
        report.failure_message =
            "rank " + std::to_string(rank) + ": " + e.what();
      }
      INSITU_ERROR << "rank " << rank << " failed: " << e.what();
    }

    RankStats& stats = report.ranks[static_cast<std::size_t>(rank)];
    stats.rank = rank;
    stats.virtual_seconds = clock.now();
    stats.mem_high_water = pal::rank_memory_tracker().high_water_bytes();
    stats.mem_final = pal::rank_memory_tracker().current_bytes();

    if (options.observe.metrics) {
      rank_metrics[static_cast<std::size_t>(rank)] = metrics.snapshot();
    }
    if (recorder != nullptr) {
      rank_events[static_cast<std::size_t>(rank)] = recorder->take_events();
    }
    if (hub != nullptr) hub->unregister_source(hub_source);
  };

  std::optional<exec::FiberScheduler::Stats> sched_stats;  // mn only
  if (options.sched.backend == SchedBackend::kThreads) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      threads.emplace_back([&, r] {
        kernels::ScopedStatsSink charge(&run_kernels);
        pal::ScopedMemoryTracker adopt(&trackers[static_cast<std::size_t>(r)]);
        pal::ScopedBufferPool adopt_pool(options.tenant.pool);  // null: no-op
        rank_main(r);
      });
    }
    for (auto& t : threads) t.join();
  } else {
    // M:N path: each rank is a fiber. Rank-confined thread-local state
    // (observability context, adopted memory tracker, log label) must
    // travel with the continuation as it migrates between carrier
    // workers; the resume/suspend hooks swap it in and out around every
    // context switch. The context swap round-trips through the hook
    // state so mutations made while running (span_depth, an installed
    // worker recorder) survive the next park.
    struct FiberTls {
      obs::RankContext ctx;           // rank's context while parked
      obs::RankContext saved_ctx;     // carrier's context while running
      pal::MemoryTracker* tracker = nullptr;
      pal::MemoryTracker* saved_tracker = nullptr;
      pal::BufferPool* pool = nullptr;        // tenant partition (optional)
      pal::BufferPool* saved_pool = nullptr;  // carrier's pool while running
      std::string label;
    };
    std::deque<FiberTls> tls(static_cast<std::size_t>(nranks));

    exec::FiberScheduler::Options fiber_options;
    fiber_options.workers = options.sched.workers;
    fiber_options.stack_bytes = options.sched.stack_bytes;
    exec::FiberScheduler sched(fiber_options);
    for (int r = 0; r < nranks; ++r) {
      FiberTls& state = tls[static_cast<std::size_t>(r)];
      state.tracker = &trackers[static_cast<std::size_t>(r)];
      state.pool = options.tenant.pool;
      state.label = "rank " + std::to_string(r);
      exec::FiberScheduler::Hooks hooks;
      hooks.on_resume = [&state] {
        state.saved_ctx = obs::context();
        obs::context() = state.ctx;
        state.saved_tracker =
            pal::exchange_adopted_memory_tracker(state.tracker);
        if (state.pool != nullptr) {
          state.saved_pool = pal::exchange_adopted_buffer_pool(state.pool);
        }
        pal::set_thread_log_label(state.label);
      };
      hooks.on_suspend = [&state] {
        state.ctx = obs::context();
        obs::context() = state.saved_ctx;
        pal::exchange_adopted_memory_tracker(state.saved_tracker);
        if (state.pool != nullptr) {
          pal::exchange_adopted_buffer_pool(state.saved_pool);
        }
      };
      sched.spawn([&, r] { rank_main(r); }, std::move(hooks));
    }
    {
      // The carriers are TaskPool workers submitted from this thread.
      kernels::ScopedStatsSink charge(&run_kernels);
      sched.run();
    }
    sched_stats = sched.stats();
  }

  for (const obs::MetricsSnapshot& snapshot : rank_metrics) {
    obs::merge_into(report.metrics, snapshot);
  }
  if (options.observe.metrics) {
    const pal::BufferPoolStats d = run_pool.stats_since(pool_start);
    if (d.hits + d.misses + d.releases > 0) {
      obs::MetricsSnapshot pool;
      const auto add = [&pool](const char* key, obs::MetricKind kind,
                               double value) {
        obs::MetricSample sample;
        sample.key = key;
        sample.kind = kind;
        sample.value = value;
        pool.push_back(std::move(sample));
      };
      // Keep this list key-sorted: merge_into expects snapshot order.
      add("pool.bytes_allocated", obs::MetricKind::kCounter,
          static_cast<double>(d.bytes_allocated));
      add("pool.bytes_reused", obs::MetricKind::kCounter,
          static_cast<double>(d.bytes_reused));
      add("pool.evictions", obs::MetricKind::kCounter,
          static_cast<double>(d.evictions));
      add("pool.free_bytes", obs::MetricKind::kGauge,
          static_cast<double>(run_pool.free_bytes()));
      add("pool.hit_rate", obs::MetricKind::kGauge, d.hit_rate());
      add("pool.hits", obs::MetricKind::kCounter,
          static_cast<double>(d.hits));
      add("pool.misses", obs::MetricKind::kCounter,
          static_cast<double>(d.misses));
      add("pool.releases", obs::MetricKind::kCounter,
          static_cast<double>(d.releases));
      obs::merge_into(report.metrics, pool);
    }
    if (sched_stats) {
      // Host-side scheduler activity: differs run to run, unlike every
      // virtual series, and exists only under sched=mn. Zero counters
      // are left out, like kernels that were never called.
      obs::MetricsSnapshot sched;
      const auto add = [&sched](const char* key, std::uint64_t value) {
        if (value == 0) return;
        obs::MetricSample sample;
        sample.key = key;
        sample.kind = obs::MetricKind::kCounter;
        sample.value = static_cast<double>(value);
        sched.push_back(std::move(sample));
      };
      // Key-sorted, like every snapshot merge_into takes.
      add("exec.sched.idle_waits", sched_stats->idle_waits);
      add("exec.sched.resumes", sched_stats->resumes);
      add("exec.sched.steals", sched_stats->steals);
      obs::merge_into(report.metrics, sched);
    }
    // Publish this run's kernel activity as labeled kernels.* counters,
    // one series per (kernel, variant) pair that was actually called.
    const kernels::StatsSnapshot run_stats = run_kernels.snapshot();
    obs::MetricsSnapshot kern;
    for (int k = 0; k < kernels::kNumKernels; ++k) {
      for (int v = 0; v < kernels::kNumVariants; ++v) {
        const kernels::KernelStats& now = run_stats.s[k][v];
        if (now.calls == 0) continue;
        const std::string labels =
            std::string("{kernel=") +
            kernels::kernel_name(static_cast<kernels::KernelId>(k)) +
            ",variant=" +
            std::string(kernels::variant_name(
                static_cast<kernels::Variant>(v))) +
            "}";
        const auto add = [&kern, &labels](const char* name, double value) {
          obs::MetricSample sample;
          sample.key = std::string(name) + labels;
          sample.kind = obs::MetricKind::kCounter;
          sample.value = value;
          kern.push_back(std::move(sample));
        };
        add("kernels.bytes", static_cast<double>(now.bytes));
        add("kernels.calls", static_cast<double>(now.calls));
        add("kernels.elements", static_cast<double>(now.elements));
      }
    }
    if (!kern.empty()) {
      // merge_into expects key-sorted snapshots; label order within one
      // kernel is already sorted, but kernel/variant enumeration is not.
      std::sort(kern.begin(), kern.end(),
                [](const obs::MetricSample& a, const obs::MetricSample& b) {
                  return a.key < b.key;
                });
      obs::merge_into(report.metrics, kern);
    }
  }
  if (!options.tenant.label.empty() && !report.metrics.empty()) {
    // Stamp the tenant onto every series this job produced, then restore
    // the sorted-by-key invariant the merge/report layers rely on.
    for (obs::MetricSample& sample : report.metrics) {
      sample.key =
          obs::metric_key_with_label(sample.key, "tenant", options.tenant.label);
    }
    std::sort(report.metrics.begin(), report.metrics.end(),
              [](const obs::MetricSample& a, const obs::MetricSample& b) {
                return a.key < b.key;
              });
  }
  if (options.observe.trace) {
    report.trace.nranks = nranks;
    std::size_t total = 0;
    for (const auto& events : rank_events) total += events.size();
    report.trace.events.reserve(total);
    for (auto& events : rank_events) {
      report.trace.events.insert(report.trace.events.end(),
                                 std::make_move_iterator(events.begin()),
                                 std::make_move_iterator(events.end()));
    }
  }
  // Callers may keep many reports (the service keeps one per session),
  // so hand the series back without the merges' growth slack.
  report.metrics.shrink_to_fit();
  return report;
}

}  // namespace insitu::comm
