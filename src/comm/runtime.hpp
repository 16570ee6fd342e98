#pragma once

// SPMD runtime: executes N virtual ranks, hands each a Communicator
// bound to a shared world group, and collects per-rank statistics
// (virtual time, tracked memory high-water mark) when the job completes.
//
// This is the substitute for `mpirun` + MPI_COMM_WORLD described in
// DESIGN.md: executed-scale runs really move data between ranks while
// the virtual clock reproduces cluster-scale cost shapes.
//
// Two scheduler backends (comm/sched.hpp, docs/SCALING.md): `threads`
// runs one OS thread per rank; `mn` runs each rank as a fiber
// multiplexed onto a small worker pool, which is what makes 10K+
// executed ranks practical on one machine. Both backends produce
// bit-identical results (bench/ablation_sched gates this).
//
// Collectives run over a hierarchical combining tree (communicator.cpp,
// docs/SCALING.md): ranks rendezvous in leaf blocks of `coll_arity`
// consecutive ranks and only the last arrival of each block ascends. The
// arity also fixes the canonical blocked combine schedule, so it changes
// floating-point reduction bits but never virtual times.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/machine_model.hpp"
#include "comm/sched.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::obs::live {
class TelemetryHub;
}

namespace insitu::comm {

/// Fan-in per combining-tree level (leaf block width and interior slot
/// width). Arities below kMinCollArity are clamped to it.
inline constexpr int kDefaultCollArity = 64;
inline constexpr int kMinCollArity = 2;

/// Statistics reported by each rank at the end of a run.
struct RankStats {
  int rank = 0;
  double virtual_seconds = 0.0;   ///< rank's virtual clock at exit
  std::size_t mem_high_water = 0; ///< tracked bytes, high-water mark
  std::size_t mem_final = 0;      ///< tracked bytes still allocated at exit
};

/// Aggregate view of one SPMD job.
struct RunReport {
  std::vector<RankStats> ranks;
  bool failed = false;
  std::string failure_message;
  /// The Options::seed the job ran with (recorded into bench baselines).
  std::uint64_t seed = 0;

  /// Per-rank metrics registries merged by key (docs/OBSERVABILITY.md).
  obs::MetricsSnapshot metrics;
  /// All ranks' spans (empty unless Options::observe.trace was set).
  obs::TraceLog trace;

  /// Job virtual time-to-solution: the slowest rank.
  double max_virtual_seconds() const;
  /// Mean per-rank virtual time.
  double mean_virtual_seconds() const;
  /// Sum of per-rank memory high-water marks (the paper's memory metric).
  std::size_t total_high_water_bytes() const;
  std::size_t max_high_water_bytes() const;
};

class Runtime {
 public:
  struct Options {
    MachineModel machine = localhost_model();
    std::uint64_t seed = 42;
    /// Charge each rank the machine's modeled startup share at launch.
    bool model_startup = false;
    /// Observability: metrics are cheap (lock-free per-rank registries)
    /// and on by default; span tracing buffers every instrumented scope
    /// and is opt-in.
    struct Observe {
      bool metrics = true;
      bool trace = false;
      /// Live streaming telemetry (src/obs/live). When set, every rank
      /// registers its registry + a flight-recorder ring with the hub
      /// for the duration of its body; the hub snapshots them in flight.
      /// Never perturbs virtual clocks (bench/ablation_telemetry gates
      /// bit-identity with the hub on and off).
      obs::live::TelemetryHub* telemetry = nullptr;
    } observe;
    /// Scheduler backend and its tuning knobs.
    struct Sched {
      SchedBackend backend = SchedBackend::kThreads;
      /// mn only: carrier workers; <= 0 means one per hardware thread.
      int workers = 0;
      /// mn only: per-fiber stack bytes; 0 means the 256 KiB default.
      std::size_t stack_bytes = 0;
    } sched;
    /// Combining-tree arity of the world group and every group split
    /// from it. Small arities build multi-level trees at small rank
    /// counts, which is what tests and bench/ablation_collectives use.
    int coll_arity = kDefaultCollArity;
    /// Multi-tenant attribution (src/service). All fields optional; none
    /// of them changes what the job computes — virtual times stay
    /// bit-identical with or without a tenant attached.
    struct Tenant {
      /// Stamped as `tenant=<label>` on every merged metric key when
      /// non-empty.
      std::string label;
      /// Rank trackers roll their traffic up into this tracker, giving
      /// the owner a live, pooling-invariant footprint for the session.
      pal::MemoryTracker* tracker = nullptr;
      /// Buffer-pool partition for this job: every rank's pooled
      /// allocations go here instead of the process default, and pool.*
      /// metrics report this partition's delta.
      pal::BufferPool* pool = nullptr;
    } tenant;
  };

  /// Run `body` on `nranks` SPMD ranks and block until all complete.
  /// `body` receives this rank's world communicator. Any uncaught exception
  /// in a rank marks the report failed (message from the first failure).
  static RunReport run(int nranks, const Options& options,
                       const std::function<void(Communicator&)>& body);

  /// Convenience overload with default options.
  static RunReport run(int nranks,
                       const std::function<void(Communicator&)>& body) {
    return run(nranks, Options{}, body);
  }
};

}  // namespace insitu::comm
