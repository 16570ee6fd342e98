#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "core/staged_adaptor.hpp"
#include "io/writers.hpp"
#include "miniapp/adaptor.hpp"
#include "service/session_manager.hpp"

namespace hostbench {
namespace {

using namespace insitu;
using obs::Category;

constexpr int kHistogramBins = 64;
constexpr double kScalarRange = 1.5;
/// Repetitions a run always makes, whatever its time budget: enough for a
/// median of set-up times, and one traced and one untraced repetition
/// each twice over in a traced run.
constexpr int kMinReps = 3;
constexpr int kMinTracedReps = 4;

int carriers() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, 4);
}

/// splitmix64: a fixed, platform-independent generator, so one seed makes
/// the same inputs on every host.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// Fig 12's three sources (periodic, damped, decaying) with seeded
/// placements, frequencies and damping. The per-step cost is O(sources x
/// points) whatever the placement, so seeds change outputs, not work.
miniapp::OscillatorConfig seeded_oscillators(std::uint64_t seed,
                                             std::int64_t n) {
  Rng rng(seed ^ 0x6f736369ULL);
  const double size = static_cast<double>(n);
  const auto center = [&] {
    return data::Vec3{rng.uniform(0.25, 0.75) * size,
                      rng.uniform(0.25, 0.75) * size,
                      rng.uniform(0.25, 0.75) * size};
  };
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {n, n, n};
  cfg.dt = 0.05;
  using Kind = miniapp::Oscillator::Kind;
  cfg.oscillators.push_back({Kind::kPeriodic, center(), size / 5.0,
                             2.0 * M_PI * rng.uniform(0.75, 1.25), 0.0});
  cfg.oscillators.push_back({Kind::kDamped, center(), size / 7.0,
                             3.0 * rng.uniform(0.75, 1.25),
                             rng.uniform(0.05, 0.2)});
  cfg.oscillators.push_back({Kind::kDecaying, center(), size / 6.0,
                             0.3 * rng.uniform(0.75, 1.25), 0.0});
  return cfg;
}

void require(const Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.to_string());
  }
}

// ---------------------------------------------------------------------------
// In situ pipeline: oscillator -> InSituBridge -> one analysis, optionally
// writing every step file-per-rank (the post hoc producer).

struct PipelineParams {
  int ranks = 4;
  comm::SchedBackend sched = comm::SchedBackend::kThreads;
  int workers = 0;
  std::int64_t grid = 16;
  int steps = 4;
  bool catalyst = false;  ///< Catalyst-slice instead of Histogram(64)
  int image_w = 1920;
  int image_h = 1080;
  std::string png_dir;    ///< catalyst: PNG output directory
  std::string write_dir;  ///< when set, VtkMultiFileWriter every step
  std::uint64_t seed = 1;
};

/// Per-rank record; each rank writes only its own slot.
struct alignas(64) RankSlot {
  double enter_s = 0.0;
  double exit_s = 0.0;
  /// Arrival at each step-boundary barrier: [0] after initialisation,
  /// [s + 1] after step s.
  std::vector<double> arrive;
  CallTimes sim_init, sim_step, bridge_init, bridge_exec, bridge_fin,
      barrier, analysis, io;
  std::int64_t points = 0;
  std::uint64_t io_bytes = 0;
};

struct Totals {
  CallTimes sim_init, sim_step, bridge_init, bridge_exec, barrier, analysis,
      io;
  std::int64_t points = 0;
  std::uint64_t io_bytes = 0;
  double max_enter_s = 0.0, max_exit_s = 0.0;
  /// Per boundary, the last rank's arrival: the moment the barrier opens.
  std::vector<double> boundary_s;

  double setup_end_s() const { return boundary_s.front(); }
  double stepping_s() const { return boundary_s.back() - boundary_s.front(); }
};

void add_times(CallTimes& into, const CallTimes& from) {
  into.calls += from.calls;
  into.elapsed_s += from.elapsed_s;
  into.cpu_s += from.cpu_s;
}

Totals sum_slots(const std::vector<RankSlot>& slots) {
  Totals t;
  for (const RankSlot& s : slots) {
    add_times(t.sim_init, s.sim_init);
    add_times(t.sim_step, s.sim_step);
    add_times(t.bridge_init, s.bridge_init);
    add_times(t.bridge_exec, s.bridge_exec);
    add_times(t.barrier, s.barrier);
    add_times(t.analysis, s.analysis);
    add_times(t.io, s.io);
    t.points += s.points;
    t.io_bytes += s.io_bytes;
    t.max_enter_s = std::max(t.max_enter_s, s.enter_s);
    t.max_exit_s = std::max(t.max_exit_s, s.exit_s);
    t.boundary_s.resize(std::max(t.boundary_s.size(), s.arrive.size()), 0.0);
    for (std::size_t b = 0; b < s.arrive.size(); ++b) {
      t.boundary_s[b] = std::max(t.boundary_s[b], s.arrive[b]);
    }
  }
  return t;
}

/// Step boundary: note the arrival, then the barrier. The last arrival
/// opens the barrier, so the max arrival over ranks is the boundary time.
/// (Rank 0's own exit time would also count the other ranks resumed
/// before it, such as 10,239 teardowns after the last step.)
void step_boundary(comm::Communicator& comm, RankSlot& slot, bool inst,
                   Track* track, bool threads) {
  slot.arrive.push_back(now_s());
  Timed t(inst, track, "comm.barrier", Category::kComm, slot.barrier, threads);
  comm.barrier();
}

std::vector<RankSlot> make_slots(int ranks, int steps) {
  std::vector<RankSlot> slots(static_cast<std::size_t>(ranks));
  for (RankSlot& slot : slots) {
    slot.arrive.reserve(static_cast<std::size_t>(steps) + 1);
  }
  return slots;
}

struct PhaseRecord {
  double call_s = 0.0;    ///< just before Runtime::run
  double return_s = 0.0;  ///< just after it returns
  /// Each step's duration, from one boundary opening to the next.
  std::vector<double> step_s;
  std::vector<analysis::HistogramResult> hists;  ///< rank 0, per step
  std::vector<std::uint64_t> image_hashes;       ///< rank 0, per step
  comm::RunReport report;
  Totals totals;
  int ranks = 0;
  bool threads = false;
};

void finish_phase(PhaseRecord& rec, const std::vector<RankSlot>& slots) {
  rec.totals = sum_slots(slots);
  const std::vector<double>& b = rec.totals.boundary_s;
  rec.step_s.clear();
  for (std::size_t i = 1; i < b.size(); ++i) {
    rec.step_s.push_back(b[i] - b[i - 1]);
  }
}

std::vector<Track> make_rank_tracks(int ranks) {
  const int stride = trace_stride(ranks);
  std::vector<Track> tracks(static_cast<std::size_t>((ranks + stride - 1) /
                                                     stride));
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    tracks[i].id = static_cast<int>(i);
  }
  return tracks;
}

comm::Runtime::Options runtime_options(comm::SchedBackend sched, int workers,
                                       std::uint64_t seed) {
  comm::Runtime::Options options;
  options.machine = comm::cori_haswell();
  options.seed = seed;
  options.sched.backend = sched;
  options.sched.workers = workers;
  return options;
}

/// One in situ job. `tracks` non-null makes it an instrumented repetition.
PhaseRecord run_pipeline(const PipelineParams& p, std::vector<Track>* tracks) {
  const bool inst = tracks != nullptr;
  const bool threads = p.sched == comm::SchedBackend::kThreads;
  const int stride = trace_stride(p.ranks);
  const miniapp::OscillatorConfig osc = seeded_oscillators(p.seed, p.grid);
  std::vector<RankSlot> slots = make_slots(p.ranks, p.steps);
  PhaseRecord rec;
  rec.ranks = p.ranks;
  rec.threads = threads;
  if (p.catalyst) {
    rec.image_hashes.resize(static_cast<std::size_t>(p.steps));
  } else {
    rec.hists.resize(static_cast<std::size_t>(p.steps));
  }

  rec.call_s = now_s();
  rec.report = comm::Runtime::run(
      p.ranks, runtime_options(p.sched, p.workers, p.seed),
      [&](comm::Communicator& comm) {
        const int rank = comm.rank();
        RankSlot& slot = slots[static_cast<std::size_t>(rank)];
        slot.enter_s = now_s();
        Track* track = inst && rank % stride == 0
                           ? &(*tracks)[static_cast<std::size_t>(rank / stride)]
                           : nullptr;
        std::optional<Span> body;
        if (inst) body.emplace(track, "exec.rank", Category::kOther);

        std::optional<miniapp::OscillatorSim> sim;
        {
          Timed t(inst, track, "miniapp.init", Category::kSim, slot.sim_init,
                  threads);
          sim.emplace(comm, osc);
          sim->initialize();
        }
        slot.points = sim->local_points();
        miniapp::OscillatorDataAdaptor adaptor(*sim);
        adaptor.set_communicator(&comm);

        std::shared_ptr<analysis::HistogramAnalysis> hist;
        std::shared_ptr<backends::CatalystSlice> slice;
        core::AnalysisAdaptorPtr analysis;
        if (p.catalyst) {
          backends::CatalystSliceConfig cs;
          cs.image_width = p.image_w;
          cs.image_height = p.image_h;
          cs.scalar_min = -kScalarRange;
          cs.scalar_max = kScalarRange;
          cs.compress_png = true;
          cs.output_directory = p.png_dir;
          slice = std::make_shared<backends::CatalystSlice>(cs);
          analysis = slice;
        } else {
          hist = std::make_shared<analysis::HistogramAnalysis>(
              "data", data::Association::kPoint, kHistogramBins);
          analysis = hist;
        }
        if (inst) {
          analysis = std::make_shared<TimedAnalysis>(
              analysis, p.catalyst ? "backends.catalyst" : "analysis.histogram",
              p.catalyst ? Category::kBackend : Category::kAnalysis, track,
              &slot.analysis, threads);
        }
        core::InSituBridge bridge(&comm);
        bridge.add_analysis(analysis);
        std::optional<io::VtkMultiFileWriter> writer;
        if (!p.write_dir.empty()) {
          writer.emplace(p.write_dir, io::LustreModel(comm.machine().fs));
        }
        {
          Timed t(inst, track, "core.bridge.init", Category::kBridge,
                  slot.bridge_init, threads);
          require(bridge.initialize(), "bridge.initialize");
        }
        step_boundary(comm, slot, inst, track, threads);
        for (int s = 0; s < p.steps; ++s) {
          {
            Timed t(inst, track, "miniapp.step", Category::kSim, slot.sim_step,
                    threads);
            sim->step();
          }
          if (writer) {
            Timed t(inst, track, "io.write_step", Category::kIo, slot.io,
                    threads);
            auto mesh = adaptor.full_mesh();
            require(mesh.status(), "full_mesh");
            auto written = writer->write_step(comm, **mesh, s);
            require(written.status(), "write_step");
            slot.io_bytes += writer->last_local_bytes();
            require(adaptor.release_data(), "release_data");
          }
          {
            Timed t(inst, track, "core.bridge.execute", Category::kBridge,
                    slot.bridge_exec, threads);
            auto keep = bridge.execute(adaptor, sim->time(), s);
            require(keep.status(), "bridge.execute");
          }
          step_boundary(comm, slot, inst, track, threads);
          if (rank == 0) {
            if (hist) {
              rec.hists[static_cast<std::size_t>(s)] = hist->last_result();
            } else {
              rec.image_hashes[static_cast<std::size_t>(s)] =
                  slice->last_image().color_hash();
            }
          }
        }
        {
          Timed t(inst, track, "core.bridge.finalize", Category::kBridge,
                  slot.bridge_fin, threads);
          require(bridge.finalize(), "bridge.finalize");
        }
        body.reset();
        slot.exit_s = now_s();
      });
  rec.return_s = now_s();
  finish_phase(rec, slots);
  return rec;
}

/// The post hoc consumer: `readers` ranks read every step the writers
/// wrote and re-run Histogram(64) on it.
PhaseRecord run_reader(int readers, int writers, const std::string& dir,
                       int steps, std::uint64_t seed,
                       std::vector<Track>* tracks) {
  const bool inst = tracks != nullptr;
  const int stride = trace_stride(readers);
  std::vector<RankSlot> slots = make_slots(readers, steps);
  PhaseRecord rec;
  rec.ranks = readers;
  rec.hists.resize(static_cast<std::size_t>(steps));
  rec.call_s = now_s();
  rec.report = comm::Runtime::run(
      readers,
      runtime_options(comm::SchedBackend::kMn, std::min(readers, carriers()),
                      seed),
      [&](comm::Communicator& comm) {
        const int rank = comm.rank();
        RankSlot& slot = slots[static_cast<std::size_t>(rank)];
        slot.enter_s = now_s();
        Track* track = inst && rank % stride == 0
                           ? &(*tracks)[static_cast<std::size_t>(rank / stride)]
                           : nullptr;
        std::optional<Span> body;
        if (inst) body.emplace(track, "exec.rank", Category::kOther);
        io::PostHocReader reader(dir, io::LustreModel(comm.machine().fs));
        core::StagedDataAdaptor adaptor(nullptr);
        adaptor.set_communicator(&comm);
        auto hist = std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, kHistogramBins);
        core::AnalysisAdaptorPtr analysis = hist;
        if (inst) {
          analysis = std::make_shared<TimedAnalysis>(
              analysis, "analysis.histogram", Category::kAnalysis, track,
              &slot.analysis, false);
        }
        core::InSituBridge bridge(&comm);
        bridge.add_analysis(analysis);
        require(bridge.initialize(), "bridge.initialize");
        step_boundary(comm, slot, inst, track, false);
        for (int s = 0; s < steps; ++s) {
          {
            Timed t(inst, track, "io.read_step", Category::kIo, slot.io,
                    false);
            auto mesh = reader.read_step(comm, s, writers);
            require(mesh.status(), "read_step");
            adaptor.set_mesh(*mesh);
          }
          {
            Timed t(inst, track, "core.bridge.execute", Category::kBridge,
                    slot.bridge_exec, false);
            auto keep = bridge.execute(adaptor, 0.0, s);
            require(keep.status(), "bridge.execute");
          }
          step_boundary(comm, slot, inst, track, false);
          if (rank == 0) {
            rec.hists[static_cast<std::size_t>(s)] = hist->last_result();
          }
        }
        require(bridge.finalize(), "bridge.finalize");
        body.reset();
        slot.exit_s = now_s();
      });
  rec.return_s = now_s();
  finish_phase(rec, slots);
  return rec;
}

std::uint64_t hash_histogram(const analysis::HistogramResult& h,
                             std::uint64_t digest) {
  digest = fnv1a_value(h.min, digest);
  digest = fnv1a_value(h.max, digest);
  return fnv1a(h.bins.data(), h.bins.size() * sizeof(std::int64_t), digest);
}

bool same_histogram(const analysis::HistogramResult& a,
                    const analysis::HistogramResult& b) {
  return std::memcmp(&a.min, &b.min, sizeof a.min) == 0 &&
         std::memcmp(&a.max, &b.max, sizeof a.max) == 0 && a.bins == b.bins;
}

/// Per-layer values every pipeline phase contributes. Times are rank
/// means (seconds per rank over the repetition); counts are totals.
void add_phase_layers(const PhaseRecord& rec, Sample& s) {
  const Totals& t = rec.totals;
  const double n = static_cast<double>(rec.ranks);
  const auto& m = rec.report.metrics;
  s["exec.launch_s"] += t.max_enter_s - rec.call_s;
  s["exec.drain_s"] += rec.return_s - t.max_exit_s;
  s["comm.coll.calls"] += sum_metric(m, "comm.collective.calls");
  s["comm.coll.wait_s"] +=
      sum_metric(m, "comm.collective.wait.seconds", true) / n;
  s["comm.coll.contended"] += sum_metric(m, "comm.collective.contended");
  s["comm.bytes_sent"] += sum_metric(m, "comm.bytes_sent");
  s["comm.barrier_s"] += t.barrier.elapsed_s / n;
  s["miniapp.init_s"] += t.sim_init.elapsed_s / n;
  s["miniapp.step.calls"] += static_cast<double>(t.sim_step.calls);
  s["miniapp.step_s"] += t.sim_step.elapsed_s / n;
  s["core.bridge.init_s"] += t.bridge_init.elapsed_s / n;
  s["core.bridge.execute.calls"] += static_cast<double>(t.bridge_exec.calls);
  s["core.bridge.execute_s"] += t.bridge_exec.elapsed_s / n;
  if (rec.threads) {
    s["miniapp.step.cpu_s"] += t.sim_step.cpu_s / n;
    s["core.bridge.execute.cpu_s"] += t.bridge_exec.cpu_s / n;
  }
  s["pal.pool.hits"] += sum_metric(m, "pool.hits");
  s["pal.pool.acquires"] +=
      sum_metric(m, "pool.hits") + sum_metric(m, "pool.misses");
  s["pal.tracked_high_water_bytes"] +=
      static_cast<double>(rec.report.total_high_water_bytes());
  for (const obs::MetricSample& sample : m) {
    std::string name;
    obs::Labels labels;
    if (!obs::parse_metric_key(sample.key, name, labels)) continue;
    const bool calls = name == "kernels.calls";
    if (!calls && name != "kernels.bytes") continue;
    for (const auto& [k, v] : labels) {
      if (k != "kernel") continue;
      s["kernels." + v + (calls ? ".calls" : ".computed_bytes")] +=
          sample.value;
      s[calls ? "kernels.calls" : "kernels.computed_bytes"] += sample.value;
    }
  }
}

void finish_pool_rate(Sample& s) {
  const double acquires = s["pal.pool.acquires"];
  s["pal.pool.hit_rate"] = acquires > 0.0 ? s["pal.pool.hits"] / acquires : 0.0;
  s.erase("pal.pool.hits");
}

/// Process CPU, faults, context switches and peak RSS of one repetition.
class RepMeter {
 public:
  RepMeter() {
    reset_peak_rss();
    start_ = ProcUsage::now();
  }
  void finish(Sample& s) const {
    const ProcUsage u = ProcUsage::now().since(start_);
    s["cpu_s"] = u.cpu_s();
    s["peak_rss_mb"] = peak_rss_mb();
    s["process.user_s"] = u.user_s;
    s["process.sys_s"] = u.sys_s;
    s["process.minflt"] = u.minflt;
    s["process.nvcsw"] = u.nvcsw;
    s["process.nivcsw"] = u.nivcsw;
  }

 private:
  ProcUsage start_;
};

/// Run repetitions until the budget is spent. Untraced runs make only
/// plain repetitions; traced runs alternate plain and instrumented ones.
template <typename Rep>
void repeat(const Options& o, Rep&& rep) {
  const double start = now_s();
  const int min_reps = o.trace ? kMinTracedReps : kMinReps;
  for (int i = 0;; ++i) {
    if (o.max_reps > 0 && i >= o.max_reps) break;
    if (o.max_reps == 0 && i >= min_reps && now_s() - start >= o.seconds) {
      break;
    }
    rep(i, o.trace && i % 2 == 1);
  }
}

// ---------------------------------------------------------------------------

struct Checker {
  Outcome& out;
  std::optional<std::uint64_t> first_digest;

  void fail(const std::string& message, long operations = 1) {
    out.failed += operations;
    if (out.errors.size() < 8) out.errors.push_back(message);
  }
  /// Every repetition of a run must reproduce the same digest.
  void digest(std::uint64_t d, long operations) {
    if (!first_digest) {
      first_digest = d;
      out.digest = d;
    } else if (*first_digest != d) {
      fail("repetition digest differs from the first repetition", operations);
    }
  }
};

void record_trace(Outcome& out, int rep, const char* phase,
                  std::vector<Track>& tracks) {
  out.trace.add("rep" + std::to_string(rep) + "/" + phase, tracks);
}

/// Set-up-only jobs (launch, initialise, tear down; no steps) an untraced
/// run adds to its set-up samples, so setup_s is a median of many. They
/// run first, so the timed repetitions start warm.
constexpr int kSetupProbes = 6;

void probe_setup(const Options& o, PipelineParams p, Outcome& out) {
  if (o.trace || o.max_reps > 0) return;
  p.steps = 0;
  for (int i = 0; i < kSetupProbes; ++i) {
    const PhaseRecord rec = run_pipeline(p, nullptr);
    if (rec.report.failed) {
      throw std::runtime_error("set-up probe failed: " +
                               rec.report.failure_message);
    }
    out.setup_s.push_back(rec.totals.setup_end_s() - rec.call_s);
  }
}

Outcome insitu_workload(const Options& o, PipelineParams p) {
  Outcome out;
  Checker check{out, {}};
  probe_setup(o, p, out);
  repeat(o, [&](int rep, bool inst) {
    if (p.catalyst) {
      p.png_dir = o.work_dir + "/png" + std::to_string(rep);
      std::filesystem::create_directories(p.png_dir);
    }
    std::vector<Track> tracks;
    if (inst) tracks = make_rank_tracks(p.ranks);
    const RepMeter meter;
    const PhaseRecord rec = run_pipeline(p, inst ? &tracks : nullptr);
    if (p.catalyst) std::filesystem::remove_all(p.png_dir);
    const double end = now_s();

    out.attempted += p.steps;
    if (rec.report.failed) {
      check.fail("run failed: " + rec.report.failure_message, p.steps);
      return;
    }
    std::uint64_t digest = fnv1a_value(rec.report.max_virtual_seconds(),
                                       1469598103934665603ULL);
    for (int s = 0; s < p.steps; ++s) {
      if (p.catalyst) {
        digest = fnv1a_value(rec.image_hashes[static_cast<std::size_t>(s)],
                             digest);
      } else {
        const auto& h = rec.hists[static_cast<std::size_t>(s)];
        digest = hash_histogram(h, digest);
        if (h.total() != rec.totals.points) {
          check.fail("step " + std::to_string(s) + ": histogram counts " +
                     std::to_string(h.total()) + " of " +
                     std::to_string(rec.totals.points) + " points");
        }
      }
    }
    check.digest(digest, p.steps);

    Sample s;
    s["setup_s"] = rec.totals.setup_end_s() - rec.call_s;
    s["wall_s"] = end - rec.call_s;
    s["steps_per_s"] = p.steps / rec.totals.stepping_s();
    meter.finish(s);
    if (!inst) {
      out.setup_s.push_back(s["setup_s"]);
      out.latencies_s.insert(out.latencies_s.end(), rec.step_s.begin(),
                             rec.step_s.end());
      out.plain.push_back(std::move(s));
      return;
    }
    add_phase_layers(rec, s);
    finish_pool_rate(s);
    const double n = static_cast<double>(p.ranks);
    const CallTimes& a = rec.totals.analysis;
    if (p.catalyst) {
      s["backends.catalyst.calls"] = static_cast<double>(a.calls);
      s["backends.catalyst.execute_s"] = a.elapsed_s / n;
      if (rec.threads) s["backends.catalyst.execute.cpu_s"] = a.cpu_s / n;
    } else {
      s["analysis.histogram.calls"] = static_cast<double>(a.calls);
      s["analysis.histogram.execute_s"] = a.elapsed_s / n;
    }
    out.instrumented.push_back(std::move(s));
    record_trace(out, rep, "ranks", tracks);
    std::vector<Track> host(1);
    record_interval(host[0], "exec.launch", Category::kOther, rec.call_s,
                    rec.totals.max_enter_s);
    record_interval(host[0], "exec.drain", Category::kOther,
                    rec.totals.max_exit_s, rec.return_s);
    record_trace(out, rep, "host", host);
  });
  return out;
}

Outcome extreme_hist(const Options& o) {
  PipelineParams p;
  p.seed = o.seed;
  p.ranks = o.tiny ? 64 : 10240;
  p.grid = o.tiny ? 8 : 22;
  p.steps = o.tiny ? 3 : 10;
  p.sched = comm::SchedBackend::kMn;
  if (!o.sched.empty()) {
    const auto parsed = comm::parse_sched_backend(o.sched);
    if (!parsed) throw std::invalid_argument("unknown --sched " + o.sched);
    p.sched = *parsed;
  }
  if (o.ranks > 0) p.ranks = o.ranks;
  p.workers = carriers();
  return insitu_workload(o, p);
}

Outcome slice_render(const Options& o) {
  PipelineParams p;
  p.seed = o.seed;
  p.ranks = 4;
  p.sched = comm::SchedBackend::kThreads;
  p.grid = o.tiny ? 16 : 128;
  p.steps = o.tiny ? 2 : 6;
  p.catalyst = true;
  p.image_w = o.tiny ? 64 : 1920;
  p.image_h = o.tiny ? 36 : 1080;
  return insitu_workload(o, p);
}

Outcome posthoc_io(const Options& o) {
  Outcome out;
  Checker check{out, {}};
  PipelineParams p;
  p.seed = o.seed;
  p.ranks = o.tiny ? 10 : 40;
  p.sched = comm::SchedBackend::kMn;
  p.workers = carriers();
  p.grid = o.tiny ? 16 : 128;
  p.steps = o.tiny ? 3 : 10;
  const int readers = std::max(1, p.ranks / 10);
  p.write_dir = o.work_dir;
  probe_setup(o, p, out);
  repeat(o, [&](int rep, bool inst) {
    p.write_dir = o.work_dir + "/steps" + std::to_string(rep);
    std::filesystem::create_directories(p.write_dir);
    std::vector<Track> write_tracks, read_tracks;
    if (inst) {
      write_tracks = make_rank_tracks(p.ranks);
      read_tracks = make_rank_tracks(readers);
    }
    const RepMeter meter;
    const PhaseRecord w = run_pipeline(p, inst ? &write_tracks : nullptr);
    PhaseRecord r;
    if (!w.report.failed) {
      r = run_reader(readers, p.ranks, p.write_dir, p.steps, p.seed,
                     inst ? &read_tracks : nullptr);
    }
    std::filesystem::remove_all(p.write_dir);
    const double end = now_s();

    out.attempted += p.steps;
    if (w.report.failed || r.report.failed) {
      check.fail("run failed: " + w.report.failure_message +
                     r.report.failure_message,
                 p.steps);
      return;
    }
    const double written = sum_metric_labeled(
        w.report.metrics, "io.bytes_written", "writer", "vtk-multifile");
    const double read = sum_metric_labeled(r.report.metrics, "io.bytes_read",
                                           "reader", "posthoc");
    if (static_cast<double>(w.totals.io_bytes) != written || written != read) {
      check.fail("bytes: benchmark counted " +
                     std::to_string(w.totals.io_bytes) + " written, program " +
                     std::to_string(written) + " written, " +
                     std::to_string(read) + " read",
                 p.steps);
    }
    std::uint64_t digest = fnv1a_value(w.report.max_virtual_seconds(),
                                       1469598103934665603ULL);
    digest = fnv1a_value(r.report.max_virtual_seconds(), digest);
    digest = fnv1a_value(w.totals.io_bytes, digest);
    for (int s = 0; s < p.steps; ++s) {
      const auto& in_situ = w.hists[static_cast<std::size_t>(s)];
      digest = hash_histogram(in_situ, digest);
      if (!same_histogram(in_situ, r.hists[static_cast<std::size_t>(s)])) {
        check.fail("step " + std::to_string(s) +
                   ": post hoc histogram differs from in situ");
      }
    }
    check.digest(digest, p.steps);

    Sample s;
    s["setup_s"] = w.totals.setup_end_s() - w.call_s;
    s["wall_s"] = end - w.call_s;
    s["steps_per_s"] =
        p.steps / (w.totals.stepping_s() + (r.return_s - r.call_s));
    meter.finish(s);
    if (!inst) {
      out.setup_s.push_back(s["setup_s"]);
      for (int i = 0; i < p.steps; ++i) {
        out.latencies_s.push_back(w.step_s[static_cast<std::size_t>(i)] +
                                  r.step_s[static_cast<std::size_t>(i)]);
      }
      out.plain.push_back(std::move(s));
      return;
    }
    add_phase_layers(w, s);
    add_phase_layers(r, s);
    finish_pool_rate(s);
    s["io.write.calls"] = static_cast<double>(w.totals.io.calls);
    s["io.write_s"] = w.totals.io.elapsed_s / p.ranks;
    s["io.write.bytes"] = static_cast<double>(w.totals.io_bytes);
    s["io.read.calls"] = static_cast<double>(r.totals.io.calls);
    s["io.read_s"] = r.totals.io.elapsed_s / readers;
    s["io.read.bytes"] = read;
    s["analysis.histogram.calls"] = static_cast<double>(
        w.totals.analysis.calls + r.totals.analysis.calls);
    s["analysis.histogram.execute_s"] =
        w.totals.analysis.elapsed_s / p.ranks +
        r.totals.analysis.elapsed_s / readers;
    out.instrumented.push_back(std::move(s));
    record_trace(out, rep, "writers", write_tracks);
    record_trace(out, rep, "readers", read_tracks);
    std::vector<Track> host(1);
    const PhaseRecord* phases[] = {&w, &r};
    for (const PhaseRecord* phase : phases) {
      record_interval(host[0], "exec.launch", Category::kOther, phase->call_s,
                      phase->totals.max_enter_s);
      record_interval(host[0], "exec.drain", Category::kOther,
                      phase->totals.max_exit_s, phase->return_s);
    }
    record_trace(out, rep, "host", host);
  });
  return out;
}

// ---------------------------------------------------------------------------
// service_mix: one SessionManager; an open loop of seeded Poisson arrivals
// at a fixed rate, then a backlog drained to empty.

constexpr int kTenants = 4;
constexpr int kSpecsPerTenant = 4;
constexpr int kWaiters = 4;
constexpr int kManagerBuilds = 9;

struct ServiceParams {
  int runners = 4;
  double rate_per_s = 100.0;  ///< open-loop arrival rate
  int open_sessions = 500;
  int backlog_sessions = 800;
  std::int64_t grid = 16;
  int steps = 8;
};

/// A session's virtual clocks depend on its size and machine model, not
/// its seed, so each spec draws its machine model from the seed: the
/// per-spec reference clocks then tell sessions apart while every session
/// does the same host work.
service::SessionSpec session_spec(const ServiceParams& sp, int tenant,
                                  int variant, std::uint64_t seed) {
  static const char* const kMachines[] = {"cori", "mira", "titan", "local"};
  Rng rng(seed * 131 +
          static_cast<std::uint64_t>(tenant * kSpecsPerTenant + variant));
  service::SessionSpec spec;
  spec.tenant = "t" + std::to_string(tenant);
  spec.name = spec.tenant + "/v" + std::to_string(variant);
  spec.ranks = 4;
  spec.grid = sp.grid;
  spec.steps = sp.steps;
  spec.weight = 1.0 + tenant;
  spec.seed = rng.next();
  spec.machine = kMachines[rng.next() % std::size(kMachines)];
  spec.analyses.set("histogram.enabled", "true");
  spec.analyses.set("histogram.bins", std::to_string(kHistogramBins));
  spec.analyses.set("statistics.enabled", "true");
  return spec;
}

service::ServiceOptions service_options(const ServiceParams& sp) {
  service::ServiceOptions options;
  options.runners = sp.runners;
  options.policy = service::AdmissionPolicy::kQueue;
  options.sched = comm::SchedBackend::kMn;
  options.sched_workers = 1;
  return options;
}

/// One repetition's seeded inputs: exponential gaps at the fixed rate
/// and a uniform spec choice per session. Each repetition draws its own,
/// so a run's latency tail spans several schedules' bursts.
struct Schedule {
  std::vector<double> arrival_s;  ///< open-loop due times, from the start
  std::vector<int> open_spec;
  std::vector<int> backlog_spec;
};

Schedule make_schedule(const ServiceParams& sp, std::uint64_t seed, int rep,
                       std::size_t specs) {
  Rng rng(seed * 1000003 + static_cast<std::uint64_t>(rep));
  Schedule schedule;
  double t = 0.0;
  for (int i = 0; i < sp.open_sessions; ++i) {
    t += -std::log1p(-rng.uniform(0.0, 1.0)) / sp.rate_per_s;
    schedule.arrival_s.push_back(t);
    schedule.open_spec.push_back(static_cast<int>(rng.next() % specs));
  }
  for (int i = 0; i < sp.backlog_sessions; ++i) {
    schedule.backlog_spec.push_back(static_cast<int>(rng.next() % specs));
  }
  return schedule;
}

using Finished = std::vector<std::pair<service::SessionStatus, int>>;
using SubmitFn = std::function<StatusOr<service::SessionId>(int spec)>;

struct OpenLoop {
  std::vector<double> latency_s;  ///< due time -> completion
  std::vector<double> late_s;     ///< submit time - due time
  std::vector<std::pair<double, double>> lifetimes;  ///< due, completion
};

/// Submits every session at its due time whatever the service's state.
/// A pool of waiter threads notes each completion: the moment
/// SessionManager::wait returns. With more sessions in flight than
/// waiters a completion would be noted late; at the fixed rate a handful
/// are in flight.
OpenLoop run_open_loop(service::SessionManager& manager,
                       const Schedule& schedule, const SubmitFn& submit,
                       Finished& finished, Checker& check) {
  struct Pending {
    service::SessionId id = 0;
    double due_s = 0.0;
    int spec = 0;
  };
  OpenLoop loop;
  std::mutex mu;  // guards everything below, `loop`, `finished`, `check`
  std::condition_variable cv;
  std::deque<Pending> queue;
  bool closed = false;

  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      for (;;) {
        Pending next;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return closed || !queue.empty(); });
          if (queue.empty()) return;
          next = queue.front();
          queue.pop_front();
        }
        auto status = manager.wait(next.id);
        const double done = now_s();
        std::lock_guard<std::mutex> lock(mu);
        loop.latency_s.push_back(done - next.due_s);
        loop.lifetimes.emplace_back(next.due_s, done);
        if (status.ok()) {
          finished.emplace_back(std::move(*status), next.spec);
        } else {
          check.fail("wait: " + status.status().to_string());
        }
      }
    });
  }

  const auto base_tp = std::chrono::steady_clock::now();
  const double base = now_s();
  for (std::size_t i = 0; i < schedule.arrival_s.size(); ++i) {
    const double offset = schedule.arrival_s[i];
    std::this_thread::sleep_until(
        base_tp + std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::duration<double>(offset)));
    const double due = base + offset;
    const double late = std::max(0.0, now_s() - due);
    const int spec = schedule.open_spec[i];
    StatusOr<service::SessionId> id = submit(spec);
    std::lock_guard<std::mutex> lock(mu);
    loop.late_s.push_back(late);
    if (!id.ok()) {
      check.fail("submit: " + id.status().to_string());
      continue;
    }
    queue.push_back({*id, due, spec});
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  cv.notify_all();
  for (std::thread& waiter : waiters) waiter.join();
  return loop;
}

/// Submits the whole backlog at once and waits for the service to drain.
/// Returns the drain seconds.
double run_backlog(service::SessionManager& manager, const Schedule& schedule,
                   const SubmitFn& submit, Finished& finished,
                   Checker& check) {
  const double start = now_s();
  std::vector<std::pair<service::SessionId, int>> backlog;
  for (const int spec : schedule.backlog_spec) {
    StatusOr<service::SessionId> id = submit(spec);
    if (id.ok()) {
      backlog.emplace_back(*id, spec);
    } else {
      check.fail("submit: " + id.status().to_string());
    }
  }
  manager.wait_all();
  const double drain_s = now_s() - start;
  for (const auto& [id, spec] : backlog) {
    auto status = manager.query(id);
    if (status.ok()) {
      finished.emplace_back(std::move(*status), spec);
    } else {
      check.fail("query: " + status.status().to_string());
    }
  }
  return drain_s;
}

/// Session lifetimes as spans on the fewest non-overlapping lanes
/// (tracks 1, 2, ...; track 0 holds the submits).
void record_session_lanes(std::vector<std::pair<double, double>> lifetimes,
                          std::vector<Track>& tracks) {
  std::sort(lifetimes.begin(), lifetimes.end());
  std::vector<double> lane_end;
  for (const auto& [due, done] : lifetimes) {
    std::size_t lane = 0;
    while (lane < lane_end.size() && lane_end[lane] > due) ++lane;
    if (lane == lane_end.size()) {
      lane_end.push_back(0.0);
      tracks.emplace_back();
      tracks.back().id = static_cast<int>(tracks.size()) - 1;
    }
    lane_end[lane] = done;
    record_interval(tracks[lane + 1], "service.session", Category::kOther,
                    due, done);
  }
}

Outcome service_mix(const Options& o) {
  Outcome out;
  Checker check{out, {}};
  ServiceParams sp;
  if (o.tiny) {
    sp.rate_per_s = 200.0;
    sp.open_sessions = 8;
    sp.backlog_sessions = 8;
    sp.grid = 8;
    sp.steps = 2;
  }
  sp.runners = carriers();

  std::vector<service::SessionSpec> specs;
  for (int t = 0; t < kTenants; ++t) {
    for (int v = 0; v < kSpecsPerTenant; ++v) {
      specs.push_back(session_spec(sp, t, v, o.seed));
    }
  }
  // Reference per-rank virtual clocks: every spec run alone.
  std::vector<std::vector<double>> reference;
  std::uint64_t digest = 1469598103934665603ULL;
  for (const service::SessionSpec& spec : specs) {
    service::SessionRunContext context;
    context.sched = comm::SchedBackend::kMn;
    context.sched_workers = 1;
    auto solo = service::run_session_pipeline(spec, context);
    if (!solo.ok()) throw std::runtime_error(solo.status().to_string());
    std::vector<double> clocks;
    for (const comm::RankStats& r : solo->report.ranks) {
      clocks.push_back(r.virtual_seconds);
      digest = fnv1a_value(r.virtual_seconds, digest);
    }
    reference.push_back(std::move(clocks));
  }
  out.digest = digest;

  repeat(o, [&](int rep, bool inst) {
    const Schedule schedule = make_schedule(sp, o.seed, rep, specs.size());
    const RepMeter meter;
    const double call = now_s();
    std::vector<double> builds;
    for (int b = 0; b < kManagerBuilds - 1; ++b) {
      const double t0 = now_s();
      service::SessionManager probe(service_options(sp));
      builds.push_back(now_s() - t0);
    }
    const double t_build = now_s();
    auto manager =
        std::make_unique<service::SessionManager>(service_options(sp));
    builds.push_back(now_s() - t_build);

    std::vector<Track> host(1);
    CallTimes submit_times;
    const SubmitFn submit = [&](int spec) {
      Timed timed(true, inst ? &host[0] : nullptr, "service.submit",
                  Category::kOther, submit_times, false);
      return manager->submit(specs[static_cast<std::size_t>(spec)]);
    };
    Finished finished;
    const OpenLoop loop =
        run_open_loop(*manager, schedule, submit, finished, check);
    const double drain_s =
        run_backlog(*manager, schedule, submit, finished, check);
    const obs::MetricsSnapshot metrics = manager->metrics();
    manager.reset();
    const double end = now_s();

    out.attempted += sp.open_sessions + sp.backlog_sessions;
    long completed = 0;
    for (const auto& [status, spec] : finished) {
      if (status.state != service::SessionState::kCompleted) {
        check.fail("session " + status.name + " ended " +
                   service::to_string(status.state) + ": " + status.message);
      } else if (status.rank_virtual_seconds !=
                 reference[static_cast<std::size_t>(spec)]) {
        check.fail("session " + status.name +
                   ": per-rank virtual clocks differ from its solo run");
      } else {
        ++completed;
      }
    }

    Sample s;
    s["setup_s"] = median(builds);
    s["wall_s"] = end - call;
    s["steps_per_s"] =
        static_cast<double>(sp.backlog_sessions * sp.steps) / drain_s;
    meter.finish(s);
    if (!inst) {
      out.setup_s.insert(out.setup_s.end(), builds.begin(), builds.end());
      out.latencies_s.insert(out.latencies_s.end(), loop.latency_s.begin(),
                             loop.latency_s.end());
      out.plain.push_back(std::move(s));
      return;
    }
    s["service.sessions_per_s"] = sp.backlog_sessions / drain_s;
    s["service.submit_s"] = submit_times.elapsed_s;
    s["service.session_p99_ms"] = 1e3 * quantile(loop.latency_s, 0.99);
    for (const char* outcome : {"admitted", "queued", "rejected"}) {
      s[std::string("service.admission.") + outcome] =
          sum_metric_labeled(metrics, "service.admission", "outcome", outcome);
    }
    s["service.completed"] = static_cast<double>(completed);
    s["service.failed"] =
        static_cast<double>(sp.open_sessions + sp.backlog_sessions - completed);
    s["bench.gen_late_ms"] = 1e3 * quantile(loop.late_s, 0.99);
    s["pal.tracked_high_water_bytes"] =
        sum_metric(metrics, "service.tenant.mem_high_water_bytes");
    s["comm.coll.calls"] = sum_metric(metrics, "comm.collective.calls");
    s["comm.bytes_sent"] = sum_metric(metrics, "comm.bytes_sent");
    out.instrumented.push_back(std::move(s));
    record_session_lanes(loop.lifetimes, host);
    record_trace(out, rep, "service", host);
  });
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "extreme_hist", "slice_render", "posthoc_io", "service_mix"};
  return names;
}

Outcome run_workload(const Options& options) {
  if (options.workload == "extreme_hist") return extreme_hist(options);
  if (options.workload == "slice_render") return slice_render(options);
  if (options.workload == "posthoc_io") return posthoc_io(options);
  if (options.workload == "service_mix") return service_mix(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

}  // namespace hostbench
