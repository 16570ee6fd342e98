// hostbench: the headline host-time benchmark.
//
//   hostbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--references FILE] [--tiny]
//             [--sched threads|mn] [--ranks N] [--max-reps N]
//   hostbench --list-metrics
//
// Runs one workload (see README.md) for about S seconds, checks every
// output, and prints one line per metric followed by a single JSON result
// line: the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. A traced run also writes its spans as a Chrome trace to
// DIR/<workload>.trace.json and derives per-layer self time from that
// file through obs::analyze.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/analyze/analyze.hpp"
#include "obs/analyze/import.hpp"
#include "obs/chrome_trace.hpp"
#include "workloads.hpp"

namespace {

using namespace hostbench;

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},
      {"wall_s", "s", "lower"},
      {"steps_per_s", "1/s", "higher"},
      {"cpu_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
      {"latency_p50_ms", "ms", "lower"},
  };
  return defs;
}

/// Kernels any workload dispatches; each gets a calls and a computed-bytes
/// metric (bytes are the kernel table's modeled read+write bytes).
const char* const kKernels[] = {
    "oscillator",     "reduce_moments", "histogram_bin", "accumulate_i64",
    "plane_distance", "colormap",       "raster_span",   "masked_store",
    "depth_composite",
};

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"exec.launch_s", "s", "lower"},
        {"exec.drain_s", "s", "lower"},
        {"process.nvcsw", "count", "lower"},
        {"process.nivcsw", "count", "lower"},
        {"process.user_s", "s", "lower"},
        {"process.sys_s", "s", "lower"},
        {"process.minflt", "count", "lower"},
        {"comm.coll.calls", "count", "lower"},
        {"comm.coll.wait_s", "s", "lower"},
        {"comm.coll.contended", "count", "lower"},
        {"comm.bytes_sent", "bytes", "lower"},
        {"comm.barrier_s", "s", "lower"},
        {"miniapp.init_s", "s", "lower"},
        {"miniapp.step.calls", "count", "lower"},
        {"miniapp.step_s", "s", "lower"},
        {"miniapp.step.cpu_s", "s", "lower"},
        {"core.bridge.init_s", "s", "lower"},
        {"core.bridge.execute.calls", "count", "lower"},
        {"core.bridge.execute_s", "s", "lower"},
        {"core.bridge.execute.cpu_s", "s", "lower"},
        {"analysis.histogram.calls", "count", "lower"},
        {"analysis.histogram.execute_s", "s", "lower"},
        {"backends.catalyst.calls", "count", "lower"},
        {"backends.catalyst.execute_s", "s", "lower"},
        {"backends.catalyst.execute.cpu_s", "s", "lower"},
        {"kernels.calls", "count", "lower"},
        {"kernels.computed_bytes", "bytes", "lower"},
    };
    static std::vector<std::string> names;  // owns the kernel metric names
    names.reserve(2 * std::size(kKernels));
    for (const char* k : kKernels) {
      names.push_back(std::string("kernels.") + k + ".calls");
      d.push_back({names.back().c_str(), "count", "lower"});
      names.push_back(std::string("kernels.") + k + ".computed_bytes");
      d.push_back({names.back().c_str(), "bytes", "lower"});
    }
    const std::vector<MetricDef> rest = {
        {"io.write.calls", "count", "lower"},
        {"io.write_s", "s", "lower"},
        {"io.write.bytes", "bytes", "lower"},
        {"io.read.calls", "count", "lower"},
        {"io.read_s", "s", "lower"},
        {"io.read.bytes", "bytes", "lower"},
        {"pal.pool.hit_rate", "ratio", "higher"},
        {"pal.pool.acquires", "count", "lower"},
        {"pal.tracked_high_water_bytes", "bytes", "lower"},
        {"service.sessions_per_s", "1/s", "higher"},
        {"service.submit_s", "s", "lower"},
        {"service.session_p99_ms", "ms", "lower"},
        {"service.admission.admitted", "count", "higher"},
        {"service.admission.queued", "count", "lower"},
        {"service.admission.rejected", "count", "lower"},
        {"service.completed", "count", "higher"},
        {"service.failed", "count", "lower"},
        {"bench.gen_late_ms", "ms", "lower"},
        {"bench.error_rate", "ratio", "lower"},
        {"bench.latency_samples", "count", "higher"},
        {"bench.latency_p90_ms", "ms", "lower"},
        {"obs.trace_overhead", "ratio", "lower"},
        {"trace.self.exec_s", "s", "lower"},
        {"trace.self.comm_s", "s", "lower"},
        {"trace.self.miniapp_s", "s", "lower"},
        {"trace.self.core_s", "s", "lower"},
        {"trace.self.analysis_s", "s", "lower"},
        {"trace.self.backends_s", "s", "lower"},
        {"trace.self.io_s", "s", "lower"},
        {"trace.self.service_s", "s", "lower"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

void list_metrics() {
  const auto print = [](const char* key, const std::vector<MetricDef>& defs) {
    std::printf("\"%s\": [\n", key);
    for (std::size_t i = 0; i < defs.size(); ++i) {
      std::printf(
          "  {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
          defs[i].name, defs[i].unit, defs[i].better,
          i + 1 < defs.size() ? "," : "");
    }
    std::printf("]\n");
  };
  std::printf("{");
  print("end_to_end", end_to_end_metrics());
  std::printf(",");
  print("per_layer", per_layer_metrics());
  std::printf("}\n");
}

/// Per-layer self time from the exported trace, re-imported through
/// obs::analyze: a span's self time is its duration minus its direct
/// children's. Rank phases report the mean over their traced rank tracks;
/// host and service tracks report their sum. One value per repetition.
std::vector<Sample> self_times(const std::string& path) {
  std::vector<Sample> per_rep;
  auto imported = insitu::obs::analyze::import_chrome_trace_file(path);
  if (!imported.ok()) {
    std::fprintf(stderr, "trace import failed: %s\n",
                 imported.status().to_string().c_str());
    return per_rep;
  }
  std::map<std::string, Sample> reps;
  for (const insitu::obs::TraceRun& run : imported->runs) {
    const std::string rep = run.label.substr(0, run.label.find('/'));
    const std::string phase = run.label.substr(run.label.find('/') + 1);
    const bool rank_phase = phase != "host" && phase != "service";
    const double divisor =
        rank_phase ? std::max(1, run.log.nranks) : 1.0;
    Sample& sample = reps[rep];
    const auto analysis = insitu::obs::analyze::analyze_trace(run.log);
    for (const auto& span : analysis.spans) {
      const std::string layer = span.name.substr(0, span.name.find('.'));
      sample["trace.self." + layer + "_s"] += span.self_virt_s / divisor;
    }
  }
  for (auto& [rep, sample] : reps) per_rep.push_back(std::move(sample));
  return per_rep;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Recorded digest for (workload, seed) from a `workload seed digest`
/// text file; empty when the pair is not recorded.
std::string recorded_digest(const std::string& path,
                            const std::string& workload, std::uint64_t seed) {
  std::ifstream in(path);
  std::string w, digest;
  std::uint64_t s = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    if (fields >> w >> s >> digest && w == workload && s == seed) {
      return digest;
    }
  }
  return "";
}

void put_metric(std::string& json, bool& first, const MetricDef& def,
                double value) {
  if (!std::isfinite(value)) value = 0.0;
  std::printf("metric %-34s %.9g %s\n", def.name, value, def.unit);
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", def.name, value, def.unit);
  json += buf;
  first = false;
}

int usage(const char* message) {
  std::fprintf(stderr, "hostbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string out_dir = ".bench_out";
  std::string references;
  int trace = -1;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) return "";
        return argv[++i];
      };
      if (arg == "--list-metrics") {
        list_metrics();
        return 0;
      } else if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--out-dir") {
        out_dir = value();
      } else if (arg == "--references") {
        references = value();
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--sched") {
        options.sched = value();
      } else if (arg == "--ranks") {
        options.ranks = std::stoi(value());
      } else if (arg == "--max-reps") {
        options.max_reps = std::stoi(value());
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::logic_error&) {  // stoi/stod on a malformed number
    return usage("malformed numeric argument");
  }
  bool known = false;
  for (const std::string& name : workload_names()) {
    known |= name == options.workload;
  }
  if (!known) return usage("--workload must name one of the four workloads");
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  options.trace = trace == 1;

  options.work_dir =
      out_dir + "/work-" + options.workload + "-" + std::to_string(getpid());
  std::filesystem::create_directories(options.work_dir);
  Outcome out;
  try {
    out = run_workload(options);
  } catch (const std::exception& e) {
    std::filesystem::remove_all(options.work_dir);
    std::fprintf(stderr, "hostbench: %s\n", e.what());
    return 1;
  }
  std::filesystem::remove_all(options.work_dir);

  // Correctness against the recorded reference for this seed.
  const std::string digest = hex64(out.digest);
  std::printf("digest %s %llu %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), digest.c_str());
  const bool default_size =
      !options.tiny && options.sched.empty() && options.ranks == 0;
  if (default_size && !references.empty()) {
    const std::string expected =
        recorded_digest(references, options.workload, options.seed);
    if (expected.empty()) {
      std::printf("reference: seed %llu not recorded; in-run checks only\n",
                  static_cast<unsigned long long>(options.seed));
    } else {
      ++out.attempted;
      if (expected != digest) {
        ++out.failed;
        out.errors.push_back("digest " + digest + " != recorded " + expected);
      } else {
        std::printf("reference: digest matches the recorded one\n");
      }
    }
  }
  for (const std::string& error : out.errors) {
    std::printf("error: %s\n", error.c_str());
  }

  Sample plain = median_of(out.plain);
  plain["setup_s"] = median(out.setup_s);
  // The first repetition's peak: later ones inherit the heap the earlier
  // ones fragmented, which a fresh process would not have.
  plain["peak_rss_mb"] =
      out.plain.empty() ? 0.0 : out.plain.front()["peak_rss_mb"];
  plain["latency_p50_ms"] = 1e3 * quantile(out.latencies_s, 0.50);
  for (const char* name : {"wall_s", "peak_rss_mb"}) {
    std::printf("per-rep %s:", name);
    for (const Sample& rep : out.plain) std::printf(" %.4g", rep.at(name));
    std::printf("\n");
  }
  std::printf("set-up samples: %zu\n", out.setup_s.size());
  std::printf("reps: %zu untraced, %zu traced; latency samples: %zu\n",
              out.plain.size(), out.instrumented.size(),
              out.latencies_s.size());

  std::string json;
  bool first = true;
  if (!options.trace) {
    for (const MetricDef& def : end_to_end_metrics()) {
      put_metric(json, first, def, plain[def.name]);
    }
  } else {
    const std::string path = out_dir + "/" + options.workload + ".trace.json";
    insitu::obs::ExportMeta meta;
    meta.tool = "hostbench";
    meta.config = "workload=" + options.workload;
    meta.seed = options.seed;
    insitu::obs::ChromeTraceOptions chrome;
    chrome.meta = &meta;
    const auto written = insitu::obs::write_chrome_trace_file(
        path, out.trace.runs(), chrome);
    if (!written.ok()) {
      std::fprintf(stderr, "hostbench: %s\n", written.to_string().c_str());
      return 1;
    }
    std::printf("trace: %s\n", path.c_str());
    Sample layers = median_of(out.instrumented);
    for (const auto& [name, value] : median_of(self_times(path))) {
      layers[name] = value;
    }
    layers["obs.trace_overhead"] = layers["wall_s"] / plain["wall_s"];
    layers["bench.error_rate"] =
        out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted
                          : 0.0;
    layers["bench.latency_samples"] =
        static_cast<double>(out.latencies_s.size());
    layers["bench.latency_p90_ms"] = 1e3 * quantile(out.latencies_s, 0.90);
    for (const MetricDef& def : end_to_end_metrics()) {
      std::printf("untraced %-32s %.9g %s\n", def.name, plain[def.name],
                  def.unit);
    }
    for (const MetricDef& def : per_layer_metrics()) {
      put_metric(json, first, def, layers[def.name]);
    }
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              json.c_str());
  return 0;
}
