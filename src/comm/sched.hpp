#pragma once

// Scheduler backend selection for the SPMD runtime.
//
// Two ways to execute virtual ranks (docs/SCALING.md):
//
//   * threads — one OS thread per rank. Simple, fully preemptive,
//     fine up to a few hundred ranks.
//   * mn      — M:N fiber scheduler (exec::FiberScheduler): ranks are
//     pooled continuations multiplexed onto a small worker pool,
//     yielding only at message-match points. Executes the full pipeline
//     at 10K+ ranks on one machine.
//
// Both produce bit-identical virtual times, histograms, and image
// hashes (gated by bench/ablation_sched). The backend is a per-run
// field, Runtime::Options::sched.backend; benches fill it from their
// `sched=`/`--sched` flag.

#include <optional>
#include <string_view>

namespace insitu::comm {

enum class SchedBackend {
  kThreads,  ///< one OS thread per virtual rank
  kMn,       ///< M:N fibers on a TaskPool (exec::FiberScheduler)
};

const char* to_string(SchedBackend backend);

/// Parse "threads" or "mn"; nullopt for anything else.
std::optional<SchedBackend> parse_sched_backend(std::string_view name);

}  // namespace insitu::comm
