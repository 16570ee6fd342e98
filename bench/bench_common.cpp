#include "bench_common.hpp"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "comm/sched.hpp"
#include "exec/task_pool.hpp"
#include "obs/analyze/baseline.hpp"
#include "pal/config.hpp"

namespace insitu::bench {

namespace {

ObsSession* g_obs_session = nullptr;

}  // namespace

ObsSession::ObsSession(int argc, const char* const* argv) {
  const pal::Config args = pal::Config::from_args(argc, argv);
  trace_path_ = args.get_string_or("trace", "");
  metrics_path_ = args.get_string_or("metrics", "");
  baseline_path_ = args.get_string_or("baseline", "");
  if (argc > 0) {
    const std::string_view arg0(argv[0]);
    const std::size_t slash = arg0.find_last_of('/');
    tool_ = std::string(
        slash == std::string_view::npos ? arg0 : arg0.substr(slash + 1));
  }
  for (int i = 1; i < argc; ++i) {
    if (i > 1) config_ += ' ';
    config_ += argv[i];
  }
  // Kernel thread budget: `threads=N` (repo idiom) or `--threads N`.
  int threads = static_cast<int>(args.get_int_or("threads", 1));
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads = std::atoi(argv[i + 1]);
    }
  }
  threads_ = threads < 1 ? 1 : threads;
  exec::set_global_threads(threads_);
  // Kernel-dispatch variant and scheduler backend: `kernels=NAME` /
  // `--kernels NAME` and `sched=NAME` / `--sched NAME`. Running another
  // variant or scheduler than the one asked for measures the wrong arm,
  // so a bad value is a hard error.
  std::string kernels = args.get_string_or("kernels", "");
  std::string sched = args.get_string_or("sched", "");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--kernels") == 0) kernels = argv[i + 1];
    if (std::strcmp(argv[i], "--sched") == 0) sched = argv[i + 1];
  }
  if (!kernels.empty()) {
    kernels_ = kernels::parse_variant(kernels);
    if (!kernels_.has_value()) {
      std::fprintf(stderr,
                   "error: kernels=%s is not a kernel variant "
                   "(expected generic|batched|simd)\n",
                   kernels.c_str());
      std::exit(2);
    }
  }
  if (!sched.empty()) {
    sched_ = comm::parse_sched_backend(sched);
    if (!sched_.has_value()) {
      std::fprintf(stderr,
                   "error: sched=%s is not a scheduler backend "
                   "(expected threads|mn)\n",
                   sched.c_str());
      std::exit(2);
    }
  }
  sched_workers_ = static_cast<int>(args.get_int_or("sched_workers", 0));
  if (sched_workers_ < 0) sched_workers_ = 0;
  // Executed rank counts: `ranks=N[,M...]` or `--ranks N[,M...]`.
  std::string ranks_text = args.get_string_or("ranks", "");
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--ranks") == 0) ranks_text = argv[i + 1];
  }
  if (!ranks_text.empty()) {
    std::string error;
    const auto parsed = parse_ranks_list(ranks_text, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "error: invalid ranks '%s': %s\n",
                   ranks_text.c_str(), error.c_str());
      std::exit(2);
    }
    ranks_ = *parsed;
  }
  pool_last_ = pal::buffer_pool().stats();
  kernels_last_ = kernels::stats_snapshot();
  g_obs_session = this;
}

std::optional<std::vector<int>> parse_ranks_list(std::string_view text,
                                                 std::string* error) {
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  if (text.empty()) return fail("empty list");
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string element(text.substr(pos, comma - pos));
    if (element.empty()) return fail("empty element");
    for (const char c : element) {
      // Reject signs and whitespace outright: a rank count is a plain
      // positive decimal integer, and strtol's leniency ("+8", " 8",
      // "-1" parsing as a huge unsigned) is exactly what we don't want.
      if (c < '0' || c > '9') {
        return fail("'" + element + "' is not a positive integer");
      }
    }
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(element.c_str(), &end, 10);
    if (errno == ERANGE || value > INT_MAX) {
      return fail("'" + element + "' overflows the rank count");
    }
    if (*end != '\0') return fail("'" + element + "' is not an integer");
    if (value <= 0) return fail("rank count must be >= 1");
    out.push_back(static_cast<int>(value));
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<int> executed_ranks() {
  ObsSession* obs = ObsSession::current();
  if (obs != nullptr && !obs->ranks_override().empty()) {
    return obs->ranks_override();
  }
  return {4, 8, 16};
}

ObsSession::~ObsSession() {
  if (g_obs_session == this) g_obs_session = nullptr;
}

ObsSession* ObsSession::current() { return g_obs_session; }

void ObsSession::record(const std::string& label,
                        const comm::RunReport& report) {
  // Multi-threaded kernels change wall time but not results; tag such
  // runs so their series stay distinguishable (serial labels unchanged).
  // Same for an explicit dispatch-variant override: identical results,
  // distinguishable series.
  std::string full =
      threads_ > 1 ? label + "/t" + std::to_string(threads_) : label;
  if (kernels_) full += "/k" + std::string(kernels::variant_name(*kernels_));
  if (sched_) full += std::string("/s") + comm::to_string(*sched_);
  if (trace_enabled()) {
    traces_.push_back({full, report.trace});
    seeds_.push_back(report.seed);
    pool_runs_.push_back(pal::buffer_pool().stats_since(pool_last_));
    pool_last_ = pal::buffer_pool().stats();
    const kernels::StatsSnapshot now = kernels::stats_snapshot();
    kernels::StatsSnapshot delta;
    for (int k = 0; k < kernels::kNumKernels; ++k) {
      for (int v = 0; v < kernels::kNumVariants; ++v) {
        delta.s[k][v].calls = now.s[k][v].calls - kernels_last_.s[k][v].calls;
        delta.s[k][v].elements =
            now.s[k][v].elements - kernels_last_.s[k][v].elements;
        delta.s[k][v].bytes = now.s[k][v].bytes - kernels_last_.s[k][v].bytes;
      }
    }
    kernels_runs_.push_back(delta);
    kernels_last_ = now;
  }
  if (metrics_enabled()) metrics_.push_back({full, report.metrics});
}

obs::ExportMeta ObsSession::export_meta() const {
  obs::ExportMeta meta;
  meta.tool = tool_;
  meta.config = config_;
  meta.threads = threads_;
  meta.seed = seeds_.empty() ? 0 : seeds_.front();
  return meta;
}

int ObsSession::finish() {
  if (finished_) return 0;
  finished_ = true;
  int rc = 0;
  const obs::ExportMeta meta = export_meta();
  if (!trace_path_.empty()) {
    obs::ChromeTraceOptions trace_options;
    trace_options.meta = &meta;
    const Status status =
        obs::write_chrome_trace_file(trace_path_, traces_, trace_options);
    if (status.ok()) {
      std::printf("wrote chrome trace (%zu runs): %s\n", traces_.size(),
                  trace_path_.c_str());
    } else {
      std::fprintf(stderr, "trace export failed: %s\n",
                   status.to_string().c_str());
      rc = 1;
    }
  }
  if (metrics_enabled()) {
    const bool json = metrics_path_.size() > 5 &&
                      metrics_path_.rfind(".json") == metrics_path_.size() - 5;
    const Status status =
        json ? obs::write_metrics_json_file(metrics_path_, metrics_, &meta)
             : obs::write_metrics_csv_file(metrics_path_, metrics_, &meta);
    if (status.ok()) {
      std::printf("wrote metrics (%zu runs): %s\n", metrics_.size(),
                  metrics_path_.c_str());
    } else {
      std::fprintf(stderr, "metrics export failed: %s\n",
                   status.to_string().c_str());
      rc = 1;
    }
  }
  if (baseline_enabled()) {
    obs::analyze::Baseline baseline;
    baseline.tool = meta.tool;
    baseline.config = meta.config;
    baseline.threads = threads_;
    baseline.seed = meta.seed;
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      obs::analyze::BaselineRun run = obs::analyze::baseline_run_from_analysis(
          traces_[i].label, obs::analyze::analyze_trace(traces_[i].log),
          i < seeds_.size() ? seeds_[i] : 0);
      if (i < pool_runs_.size()) {
        const pal::BufferPoolStats& pool = pool_runs_[i];
        // Short runs are dominated by warmup misses and by sim/worker
        // scheduling wobble (a lagging async worker widens the live
        // working set); only gate hit rates with enough traffic for a
        // stable steady state.
        if (pool.hits + pool.misses >= 256) {
          run.has_pool = true;
          run.pool_hit_rate = pool.hit_rate();
          run.pool_bytes_allocated =
              static_cast<double>(pool.bytes_allocated);
          run.pool_bytes_reused = static_cast<double>(pool.bytes_reused);
        }
      }
      if (i < kernels_runs_.size()) {
        // Informational only (check_baseline never fails on it): which
        // dispatch variant ran and how many elements each kernel saw.
        const kernels::StatsSnapshot& delta = kernels_runs_[i];
        std::uint64_t calls_per_variant[kernels::kNumVariants] = {};
        for (int k = 0; k < kernels::kNumKernels; ++k) {
          std::uint64_t elements = 0;
          for (int v = 0; v < kernels::kNumVariants; ++v) {
            elements += delta.s[k][v].elements;
            calls_per_variant[v] += delta.s[k][v].calls;
          }
          if (elements > 0) {
            run.kernels_elements.emplace_back(
                kernels::kernel_name(static_cast<kernels::KernelId>(k)),
                static_cast<double>(elements));
          }
        }
        int dominant = 0;
        for (int v = 1; v < kernels::kNumVariants; ++v) {
          if (calls_per_variant[v] > calls_per_variant[dominant]) dominant = v;
        }
        if (!run.kernels_elements.empty()) {
          run.has_kernels = true;
          run.kernels_variant = std::string(
              kernels::variant_name(static_cast<kernels::Variant>(dominant)));
        }
      }
      baseline.runs.push_back(std::move(run));
    }
    const Status status =
        obs::analyze::write_baseline_file(baseline_path_, baseline);
    if (status.ok()) {
      std::printf("wrote baseline (%zu runs): %s\n", baseline.runs.size(),
                  baseline_path_.c_str());
    } else {
      std::fprintf(stderr, "baseline export failed: %s\n",
                   status.to_string().c_str());
      rc = 1;
    }
  }
  return rc;
}

namespace {

miniapp::OscillatorConfig executed_sim_config(
    const MiniappBenchParams& params) {
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {params.cells_per_axis, params.cells_per_axis,
                      params.cells_per_axis};
  cfg.dt = 0.05;
  const double c = static_cast<double>(params.cells_per_axis) / 2.0;
  cfg.oscillators = {
      {miniapp::Oscillator::Kind::kPeriodic, {c, c, c},
       static_cast<double>(params.cells_per_axis) / 5.0, 2.0 * M_PI, 0.0},
      {miniapp::Oscillator::Kind::kDamped, {c / 2.0, c, c},
       static_cast<double>(params.cells_per_axis) / 7.0, 3.0, 0.1},
      {miniapp::Oscillator::Kind::kDecaying, {c, c / 2.0, 1.5 * c},
       static_cast<double>(params.cells_per_axis) / 6.0, 0.3, 0.0},
  };
  return cfg;
}

}  // namespace

comm::Runtime::Options session_options() {
  comm::Runtime::Options options;
  const ObsSession* obs = ObsSession::current();
  if (obs == nullptr) return options;
  options.observe.trace = obs->trace_enabled();
  if (obs->sched_backend()) options.sched.backend = *obs->sched_backend();
  if (obs->kernels_variant()) options.kernels = *obs->kernels_variant();
  options.sched.workers = obs->sched_workers();
  return options;
}

comm::Runtime::Options ablation_options() {
  comm::Runtime::Options options = session_options();
  options.machine = comm::cori_haswell();
  options.seed = 7;
  return options;
}

miniapp::OscillatorConfig ablation_oscillator_config(
    std::int64_t cells_per_axis, double radius) {
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {cells_per_axis, cells_per_axis, cells_per_axis};
  cfg.dt = 0.05;
  const double c = static_cast<double>(cells_per_axis) / 2.0;
  cfg.oscillators = {{miniapp::Oscillator::Kind::kPeriodic, {c, c, c},
                      radius, 2.0 * M_PI, 0.0}};
  return cfg;
}

RunResult run_miniapp_config(MiniappConfig config,
                             const MiniappBenchParams& params) {
  RunResult result;
  result.ranks = params.ranks;
  std::vector<std::size_t> startup(static_cast<std::size_t>(params.ranks), 0);

  ObsSession* obs = ObsSession::current();

  comm::Runtime::Options options = session_options();
  options.machine = params.machine;
  options.seed = 7;

  comm::RunReport report = comm::Runtime::run(
      params.ranks, options, [&](comm::Communicator& comm) {
        // ---- simulation init ----
        const double t0 = comm.clock().now();
        miniapp::OscillatorSim sim(comm, executed_sim_config(params));
        sim.initialize();
        const double sim_init = comm.clock().now() - t0;
        startup[static_cast<std::size_t>(comm.rank())] =
            pal::rank_memory_tracker().current_bytes();

        // ---- "Original": subroutine-called autocorrelation, no SENSEI --
        if (config == MiniappConfig::kOriginal) {
          // Direct circular-buffer autocorrelation over the sim's buffer,
          // no adaptor / bridge in the path.
          const std::size_t n = sim.values().size();
          std::vector<double> history(
              static_cast<std::size_t>(params.window) * n, 0.0);
          std::vector<double> corr(history.size(), 0.0);
          pal::TrackedBytes tracked(2 * history.size() * sizeof(double));
          pal::PhaseTimer sim_t, analysis_t;
          for (int s = 0; s < params.steps; ++s) {
            const double ts = comm.clock().now();
            sim.step();
            sim_t.add(comm.clock().now() - ts);
            const double ta = comm.clock().now();
            const int delays = std::min(s, params.window);
            for (std::size_t i = 0; i < n; ++i) {
              const double now = sim.values()[i];
              for (int d = 1; d <= delays; ++d) {
                const std::size_t slot =
                    static_cast<std::size_t>((s - d) % params.window) * n + i;
                corr[static_cast<std::size_t>(d - 1) * n + i] +=
                    history[slot] * now;
              }
              history[static_cast<std::size_t>(s % params.window) * n + i] =
                  now;
            }
            comm.advance_compute(comm.machine().compute_time(
                static_cast<std::uint64_t>(n) *
                static_cast<std::uint64_t>(delays + 1)));
            analysis_t.add(comm.clock().now() - ta);
          }
          // Final top-k reduction, identical to the SENSEI analysis.
          const double tf = comm.clock().now();
          for (int d = 0; d < params.window; ++d) {
            std::vector<double> local(corr.begin() +
                                          static_cast<std::ptrdiff_t>(d * n),
                                      corr.begin() +
                                          static_cast<std::ptrdiff_t>(
                                              (d + 1) * n));
            std::partial_sort(
                local.begin(),
                local.begin() + std::min<std::ptrdiff_t>(params.top_k,
                                                         local.size()),
                local.end(), std::greater<>());
            local.resize(static_cast<std::size_t>(params.top_k));
            (void)comm.gatherv(std::span<const double>(local), 0);
          }
          if (comm.rank() == 0) {
            result.sim_init = sim_init;
            result.per_step_sim = sim_t.mean();
            result.per_step_analysis = analysis_t.mean();
            result.finalize = comm.clock().now() - tf;
          }
          return;
        }

        // ---- SENSEI-instrumented configurations ----
        miniapp::OscillatorDataAdaptor adaptor(sim);
        core::InSituBridge bridge(&comm);
        std::shared_ptr<analysis::Autocorrelation> autocorr;
        switch (config) {
          case MiniappConfig::kBaseline:
            break;
          case MiniappConfig::kHistogram:
            bridge.add_analysis(std::make_shared<analysis::HistogramAnalysis>(
                "data", data::Association::kPoint, params.histogram_bins));
            break;
          case MiniappConfig::kAutocorrelation:
            autocorr = std::make_shared<analysis::Autocorrelation>(
                "data", data::Association::kPoint, params.window,
                params.top_k);
            bridge.add_analysis(autocorr);
            break;
          case MiniappConfig::kCatalystSlice: {
            backends::CatalystSliceConfig cs;
            cs.image_width = params.image_w;
            cs.image_height = params.image_h;
            cs.scalar_min = -1.5;
            cs.scalar_max = 1.5;
            bridge.add_analysis(
                std::make_shared<backends::CatalystSlice>(cs));
            break;
          }
          case MiniappConfig::kLibsimSlice: {
            backends::LibsimConfig lc;
            lc.session_text =
                "[session]\narray=data\ncolormap=cool_warm\nmin=-1.5\n"
                "max=1.5\nwidth=" +
                std::to_string(params.image_w) +
                "\nheight=" + std::to_string(params.image_w) +
                "\n[plot0]\ntype=slice\naxis=2\nvalue=" +
                std::to_string(params.cells_per_axis / 2.0) + "\n";
            bridge.add_analysis(std::make_shared<backends::LibsimRender>(lc));
            break;
          }
          case MiniappConfig::kOriginal:
            break;  // handled above
        }

        (void)bridge.initialize();
        pal::PhaseTimer sim_t;
        for (int s = 0; s < params.steps; ++s) {
          const double ts = comm.clock().now();
          sim.step();
          sim_t.add(comm.clock().now() - ts);
          (void)bridge.execute(adaptor, sim.time(), s);
        }
        (void)bridge.finalize();

        if (comm.rank() == 0) {
          result.sim_init = sim_init;
          result.analysis_init = bridge.timings().initialize_seconds;
          result.per_step_sim = sim_t.mean();
          result.per_step_analysis =
              bridge.timings().analysis_per_step.mean();
          result.finalize = bridge.timings().finalize_seconds;
        }
      });

  result.total = report.max_virtual_seconds();
  result.mem_high_water = report.total_high_water_bytes();
  for (const std::size_t bytes : startup) result.mem_startup += bytes;
  if (obs != nullptr) {
    obs->record(std::string(to_string(config)) + "/p" +
                    std::to_string(params.ranks),
                report);
  }
  return result;
}

}  // namespace insitu::bench
