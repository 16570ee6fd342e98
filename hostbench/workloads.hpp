#pragma once

// The benchmark's four workloads. Each runs repetitions of one complete
// job (launch, set-up, stepping, teardown) until its time budget is
// spent, checks every output, and reports per-repetition samples.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace hostbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrunk to run in well under a second.
  bool tiny = false;
  /// extreme_hist only: scheduler backend and rank count overrides (the
  /// self-test's threads-vs-mn digest comparison). Empty / 0 = default.
  std::string sched;
  int ranks = 0;
  /// Stop after this many repetitions (0 = until `seconds` is spent).
  int max_reps = 0;
  /// Private scratch directory for files the workload writes.
  std::string work_dir;
};

struct Outcome {
  /// One sample per untraced repetition (end-to-end metric names).
  std::vector<Sample> plain;
  /// One sample per instrumented repetition (per-layer metric names).
  std::vector<Sample> instrumented;
  /// Latency samples pooled over the untraced repetitions, seconds.
  std::vector<double> latencies_s;
  /// Set-up times of the untraced repetitions and of the set-up-only
  /// probes an untraced run adds, seconds.
  std::vector<double> setup_s;
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  /// Digest of everything the seed determines (identical every rep).
  std::uint64_t digest = 0;
  /// Spans of the instrumented repetitions.
  TraceSink trace;
};

/// Names accepted by run_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

Outcome run_workload(const Options& options);

}  // namespace hostbench
