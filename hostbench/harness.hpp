#pragma once

// Measurement plumbing for the host-time benchmark: host clocks, process
// resource usage, the benchmark's own span recorder, a timing decorator
// for analyses, and the metric table every workload fills.
//
// Everything here lives outside the program under test. The benchmark
// only times its own calls into the public API, wraps the analyses it
// adds, and reads counters the runtime already publishes.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/analysis_adaptor.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"

namespace hostbench {

// ---- clocks and process usage ----

/// Host seconds on the steady clock since the first call in the process.
double now_s();
/// CPU seconds consumed by the calling OS thread. Only meaningful around
/// a call when the caller owns its thread (sched=threads): under sched=mn
/// the carrier also runs other ranks' fibers.
double thread_cpu_s();

struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minflt = 0.0;
  double nvcsw = 0.0;
  double nivcsw = 0.0;

  static ProcUsage now();
  ProcUsage since(const ProcUsage& start) const;
  double cpu_s() const { return user_s + sys_s; }
};

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();
/// Restart the peak at the current resident set, so the next
/// peak_rss_mb() is the peak of one repetition.
void reset_peak_rss();

// ---- statistics ----

double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

/// FNV-1a over raw bytes; chains from `h`.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 1469598103934665603ULL);
template <typename T>
std::uint64_t fnv1a_value(const T& value, std::uint64_t h) {
  return fnv1a(&value, sizeof value, h);
}

// ---- spans ----

/// One trace track: a rank body, the host thread, or a session lane.
/// Confined to one logical thread of control (a rank may migrate between
/// carriers under sched=mn, so the depth lives here, not in TLS).
struct Track {
  int id = 0;
  int depth = 0;
  std::vector<insitu::obs::TraceEvent> events;
};

/// RAII span on a track; a null track makes it a no-op. Spans carry host
/// time on both of obs::TraceEvent's timelines (this is a host-time
/// trace), so obs::analyze's self-time attribution yields host seconds.
class Span {
 public:
  Span(Track* track, const char* name, insitu::obs::Category category);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Track* track_;
  insitu::obs::TraceEvent event_;
};

/// Record an already-finished interval as a top-level span.
void record_interval(Track& track, const char* name,
                     insitu::obs::Category category, double begin_s,
                     double end_s);

/// Gathers the tracks of the traced repetitions of one run.
class TraceSink {
 public:
  /// Move a repetition's tracks into the run named `label`.
  void add(const std::string& label, std::vector<Track>& tracks);
  const std::vector<insitu::obs::TraceRun>& runs() const { return runs_; }

 private:
  std::vector<insitu::obs::TraceRun> runs_;
};

/// Rank spans are recorded on at most this many ranks per run: every
/// `stride`-th rank, so a 10,240-rank trace stays small.
inline constexpr int kMaxTracedRanks = 64;
inline int trace_stride(int ranks) {
  return ranks <= kMaxTracedRanks ? 1
                                  : (ranks + kMaxTracedRanks - 1) /
                                        kMaxTracedRanks;
}

// ---- timing decorator ----

/// Per-rank accumulators a Timed scope writes into.
struct CallTimes {
  long calls = 0;
  double elapsed_s = 0.0;
  double cpu_s = 0.0;
};

/// Times one call into the program: a span on the rank's track plus
/// elapsed (and thread-CPU, when the rank owns its thread) seconds.
/// Inert when `on` is false, so untraced repetitions run bare.
class Timed {
 public:
  Timed(bool on, Track* track, const char* name,
        insitu::obs::Category category, CallTimes& times, bool thread_cpu);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  bool on_;
  CallTimes* times_;
  bool thread_cpu_;
  std::optional<Span> span_;
  double cpu0_ = 0.0;
  double t0_ = 0.0;
};

/// Wraps an analysis the benchmark adds: forwards every call and times
/// execute() in a Timed scope.
class TimedAnalysis final : public insitu::core::AnalysisAdaptor {
 public:
  TimedAnalysis(insitu::core::AnalysisAdaptorPtr inner, const char* span,
                insitu::obs::Category category, Track* track,
                CallTimes* times, bool thread_cpu)
      : inner_(std::move(inner)),
        span_(span),
        category_(category),
        track_(track),
        times_(times),
        thread_cpu_(thread_cpu) {}

  std::string name() const override { return inner_->name(); }
  insitu::Status initialize(insitu::comm::Communicator& comm) override {
    return inner_->initialize(comm);
  }
  insitu::StatusOr<bool> execute(insitu::core::DataAdaptor& data) override;
  insitu::Status finalize(insitu::comm::Communicator& comm) override {
    return inner_->finalize(comm);
  }

 private:
  insitu::core::AnalysisAdaptorPtr inner_;
  const char* span_;
  insitu::obs::Category category_;
  Track* track_;
  CallTimes* times_;
  bool thread_cpu_;
};

// ---- runtime counters ----

/// Sum of every sample whose bare name (labels stripped) is `name`:
/// counter/gauge values, or histogram sums when `histogram_sum` is set.
double sum_metric(const insitu::obs::MetricsSnapshot& snapshot,
                  std::string_view name, bool histogram_sum = false);
/// Sum of the samples of `name` whose labels include `label`=`value`.
double sum_metric_labeled(const insitu::obs::MetricsSnapshot& snapshot,
                          std::string_view name, std::string_view label,
                          std::string_view value);

// ---- results ----

/// Named values of one repetition; a run reports the median of each name
/// over its repetitions.
using Sample = std::map<std::string, double>;

/// Median of each key over the samples (a key missing from a sample
/// counts as absent there, not as zero).
Sample median_of(const std::vector<Sample>& samples);

}  // namespace hostbench
