#pragma once

// TelemetryHub: always-on streaming telemetry for in-flight runs.
//
// The hub periodically snapshots every registered rank/tenant
// MetricsRegistry *while the run executes* (instrument reads are relaxed
// atomics, so sampling never blocks a rank's hot path; registry map
// mutexes are only contended on first-use series creation), stamps each
// source's tenant label, merges everything into one MetricsSnapshot,
// estimates latency p50/p99 with obs::histogram_quantile (the estimator
// the health rules evaluate, so a frame's p99 and an alert's observed
// p99 agree), evaluates the configured health rules, and appends one
// JSONL frame (`insitu-live/1`) to the stream file that
// `tools/perf_report --follow` tails.
//
// It also retains flight-recorder state: live rings are snapshotted on
// dump_flight(), and a bounded deque of recently-retired rings (captured
// at unregister_source) keeps post-run dumps — quota breach is detected
// after the session's ranks exit — from coming up empty.
//
// Self-accounting: every tick's cost lands in the hub's own registry
// (obs.overhead.tick.seconds / frames / bytes_written / sources), which
// is merged into frames and into hub_metrics(); bench/ablation_telemetry
// gates busy_seconds() <= 2% of wall time.
//
// Works identically under sched=threads and sched=mn: sources register by
// registry pointer, and rank registries are stable for the rank body's
// lifetime on both backends. Nothing the hub does touches virtual
// clocks, so telemetry on/off is bit-identical in modeled time.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/live/flight_recorder.hpp"
#include "obs/live/health.hpp"
#include "obs/metrics.hpp"
#include "pal/config.hpp"
#include "pal/status.hpp"

namespace insitu::obs::live {

struct TelemetryOptions {
  /// Snapshot cadence for the background ticker; 0 disables the thread
  /// (tick_now() still works, which is what deterministic tests use).
  int interval_ms = 10;
  /// JSONL stream path (`insitu-live/1` frames); empty = no stream file.
  std::string stream_path;
  /// Flight-recorder dump path; empty = no dump file (dump_flight still
  /// returns the formatted text).
  std::string dump_path;
  /// Ring capacity handed to per-rank FlightRecorders by the Runtime.
  std::size_t flight_events = 256;
  /// How many retired (unregistered) rank rings to retain for dumps.
  std::size_t retired_rings = 64;
  /// Best-effort dump_flight("signal") on SIGSEGV/SIGBUS/SIGABRT. The
  /// crash path is documented-racy (not async-signal-safe); default off.
  bool install_signal_handler = false;
  std::vector<HealthRule> rules;
};

/// Parse `[health]` keys (interval_ms, stream, dump, flight_events,
/// rule.*) into options. Unknown keys are the config layer's business
/// (backends/configurable validates sections strictly).
Status parse_telemetry_config(const pal::Config& config,
                              TelemetryOptions& options);

class TelemetryHub {
 public:
  using AlertSink = std::function<void(const HealthAlert&)>;

  explicit TelemetryHub(TelemetryOptions options);
  ~TelemetryHub();

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  const TelemetryOptions& options() const { return options_; }

  /// Open the stream file and launch the ticker (when interval_ms > 0).
  Status start();

  /// Final tick (frame stamped `"final":true`), stop the ticker, close
  /// the stream. Idempotent; the destructor calls it.
  void stop();

  /// Register one source of live metrics (and optionally its flight
  /// ring). Returns a handle for unregister_source(). The registry and
  /// recorder must stay valid until unregistered. tenant may be empty.
  int register_source(int rank, std::string tenant,
                      const MetricsRegistry* metrics,
                      FlightRecorder* flight = nullptr);

  /// Drop a source; its flight ring (if any) is snapshotted into the
  /// bounded retired-ring deque so post-run dumps still have content.
  void unregister_source(int id);

  /// Callback invoked (on the ticking thread) for every alert. The sink
  /// MUST NOT call back into the hub and must do its own locking with a
  /// lock that is never held while calling hub methods (the service uses
  /// a dedicated degrade mutex for exactly this reason).
  void set_alert_sink(AlertSink sink);

  /// Synchronous snapshot+evaluate+append, usable with no ticker thread.
  void tick_now();

  /// Write (and return) a flight dump: all live rings, retained retired
  /// rings, and the current aggregated metrics. Appends to dump_path
  /// when configured.
  StatusOr<std::string> dump_flight(std::string_view reason);

  /// Merged tenant-stamped snapshot of all current sources plus the
  /// hub's own obs.* series.
  MetricsSnapshot aggregate() const;

  /// Just the hub's own registry (obs.overhead.*, obs.health.alert,
  /// obs.flight.dumps).
  MetricsSnapshot hub_metrics() const { return self_metrics_.snapshot(); }

  std::uint64_t frames_written() const;
  std::uint64_t alerts_fired() const;
  std::uint64_t flight_dumps() const;
  /// CPU seconds the telemetry path has spent in ticks + dumps (thread
  /// CPU time, so a preempted ticker is not charged for descheduling).
  double busy_seconds() const;

 private:
  struct Source {
    int id = 0;
    int rank = 0;
    std::string tenant;
    const MetricsRegistry* metrics = nullptr;
    FlightRecorder* flight = nullptr;
  };

  /// Snapshot + stamp + merge all sources (mutex_ must be held).
  MetricsSnapshot aggregate_locked() const;
  void tick_locked(bool final_frame);
  void append_frame_locked(const MetricsSnapshot& merged,
                           const std::vector<HealthAlert>& alerts,
                           bool final_frame);
  std::vector<HealthAlert> evaluate_rules_locked(
      const MetricsSnapshot& merged);
  void ticker_main();

  TelemetryOptions options_;
  MetricsRegistry self_metrics_;

  mutable std::mutex mutex_;  // sources, stream, edge state, retired rings
  std::vector<Source> sources_;
  int next_source_id_ = 1;
  std::deque<FlightSnapshot> retired_;
  std::ofstream stream_;
  std::uint64_t frame_index_ = 0;
  /// Edge-trigger latch per (rule name, series key).
  std::map<std::pair<std::string, std::string>, bool> latched_;

  AlertSink sink_;  // set before start(); called with mutex_ held
  std::mutex ticker_mutex_;
  std::condition_variable ticker_cv_;
  std::thread ticker_;
  bool stop_requested_ = false;
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::uint64_t> alerts_{0};
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<double> busy_seconds_{0.0};
};

}  // namespace insitu::obs::live
