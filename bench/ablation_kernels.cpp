// Ablation: kernel dispatch variants (generic / batched / simd).
//
// The kernels:: library promises two things (docs/PERFORMANCE.md "Kernel
// dispatch"): switching variants never changes *what* is computed — the
// virtual clock, histogram contents, and rendered images are identical —
// and the vectorized variants are genuinely faster in wall-clock terms
// on the primitives that dominate per-step in situ cost. This bench
// checks both:
//
//  * Arms: the executed oscillator + histogram + Catalyst-slice pipeline
//    runs once per variant. Virtual end-to-end times must be
//    bit-identical, histogram bins and image hashes equal across arms.
//  * Wall clock: each primitive is timed per variant (best-of-reps);
//    simd must beat generic by >= 1.2x on histogram binning and depth
//    compositing (the two named gates), other primitives report only.
//
// Each arm picks its variant as a run option (Runtime::Options::kernels);
// the primitive timings run outside any run and pick theirs with a
// scoped kernels::StatsSink.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "kernels/kernels.hpp"
#include "miniapp/adaptor.hpp"
#include "pal/table.hpp"

#include "bench_common.hpp"

namespace {

using namespace insitu;

constexpr int kRanks = 4;
constexpr int kSteps = 10;

// Wall-clock ratios only mean something in optimized, uninstrumented
// builds; under sanitizers (the TSan CI job runs this bench) or -O0 the
// speedup rows print but do not gate. Virtual-time identity and
// histogram and image equality always gate.
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_THREAD__) && \
    !defined(__SANITIZE_ADDRESS__)
constexpr bool kEnforceWallGates = true;
#else
constexpr bool kEnforceWallGates = false;
#endif

constexpr kernels::Variant kArms[] = {kernels::Variant::kGeneric,
                                      kernels::Variant::kBatched,
                                      kernels::Variant::kSimd};

// ---- pipeline arms ----

struct ArmResult {
  double total = 0.0;              ///< end-to-end virtual seconds
  std::vector<std::int64_t> bins;  ///< final histogram (root)
  std::uint64_t image_hash = 0;    ///< final slice image (root)
};

ArmResult run_arm(kernels::Variant variant, const std::string& label) {
  ArmResult result;
  bench::ObsSession* obs = bench::ObsSession::current();
  comm::Runtime::Options options = bench::ablation_options();
  options.kernels = variant;

  comm::RunReport report = comm::Runtime::run(
      kRanks, options, [&](comm::Communicator& comm) {
        miniapp::OscillatorSim sim(comm,
                                   bench::ablation_oscillator_config(16, 3.0));
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);

        auto hist = std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 64);
        backends::CatalystSliceConfig cs;
        cs.image_width = 256;
        cs.image_height = 144;
        cs.scalar_min = -1.5;
        cs.scalar_max = 1.5;
        auto slice = std::make_shared<backends::CatalystSlice>(cs);

        core::InSituBridge bridge(&comm);
        bridge.add_analysis(hist);
        bridge.add_analysis(slice);
        (void)bridge.initialize();
        for (int s = 0; s < kSteps; ++s) {
          sim.step();
          (void)bridge.execute(adaptor, sim.time(), s);
        }
        (void)bridge.finalize();
        if (comm.rank() == 0) {
          result.bins = hist->last_result().bins;
          result.image_hash = slice->last_image().color_hash();
        }
      });
  result.total = report.max_virtual_seconds();
  if (obs != nullptr) obs->record(label, report);
  return result;
}

// ---- wall-clock primitive timings ----

constexpr std::int64_t kN = 1 << 16;
constexpr int kReps = 9;

std::vector<double> make_input(std::int64_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = std::sin(0.001 * static_cast<double>(i));
  }
  return v;
}

/// Best-of-kReps wall seconds for `body()` under `variant`. `iters`
/// calls per rep keep each measurement well above timer resolution.
double time_variant(kernels::Variant variant, int iters,
                    const std::function<void()>& body) {
  kernels::StatsSink sink(variant);
  kernels::ScopedStatsSink dispatch_to(&sink);
  body();  // warm caches + dispatch
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) body();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count() / iters);
  }
  return best;
}

struct PrimitiveTiming {
  const char* name = "";
  bool gated = false;  ///< simd/generic >= 1.2x required
  double seconds[3] = {0.0, 0.0, 0.0};

  double speedup() const {
    return seconds[2] > 0.0 ? seconds[0] / seconds[2] : 0.0;
  }
};

std::vector<PrimitiveTiming> time_primitives() {
  std::vector<PrimitiveTiming> out;
  const std::vector<double> x = make_input(kN);
  std::vector<double> dst(x.size(), 0.0);
  std::vector<std::int64_t> bins(64, 0);
  const std::uint8_t controls[8] = {0, 0, 255, 255, 255, 0, 0, 255};
  std::vector<std::uint8_t> rgba(4 * x.size());
  std::vector<float> src_d(x.size()), dst_d(x.size());
  std::vector<std::uint8_t> src_c(4 * x.size(), 0x7F);
  std::vector<std::uint8_t> dst_c(4 * x.size(), 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    src_d[i] = static_cast<float>(i % 3);
    dst_d[i] = static_cast<float>((i + 1) % 3);
  }

  const auto measure = [&out](const char* name, bool gated, int iters,
                              const std::function<void()>& body) {
    PrimitiveTiming t;
    t.name = name;
    t.gated = gated;
    for (const kernels::Variant v : kArms) {
      t.seconds[static_cast<int>(v)] = time_variant(v, iters, body);
    }
    out.push_back(t);
  };

  measure("reduce_moments", false, 64, [&] {
    const kernels::Moments m = kernels::reduce_moments(x.data(), kN, nullptr);
    volatile double sink = m.sum;
    (void)sink;
  });
  measure("histogram_bin", true, 64, [&] {
    kernels::histogram_bin(x.data(), kN, nullptr, -1.0, 2.0, 64,
                           bins.data());
  });
  measure("colormap", false, 32, [&] {
    kernels::colormap_apply(x.data(), kN, -1.0, 1.0, controls, 2,
                            rgba.data());
  });
  measure("depth_composite", true, 64, [&] {
    kernels::depth_composite(dst_c.data(), dst_d.data(), src_c.data(),
                             src_d.data(), kN);
  });
  measure("oscillator", false, 16, [&] {
    kernels::oscillator_accumulate(dst.data(), kN, 0.0, 1.0, 0, 4.0, 9.0,
                                   100.0, 50.0, 0.8);
  });
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs(argc, argv);
  std::printf("=== bench: ablation — kernel dispatch variants ===\n");
  int rc = 0;

  // ---- arm runs: identical results across variants ----
  ArmResult arms[3];
  pal::TablePrinter pipeline(
      "Oscillator 16^3 + histogram + Catalyst slice (executed, " +
      std::to_string(kRanks) + " ranks, " + std::to_string(kSteps) +
      " steps)");
  pipeline.set_header({"variant", "end-to-end (s)", "histogram total",
                       "image hash"});
  for (const kernels::Variant v : kArms) {
    const int i = static_cast<int>(v);
    arms[i] = run_arm(v, std::string("pipeline/") +
                             std::string(kernels::variant_name(v)) + "/p" +
                             std::to_string(kRanks));
    std::int64_t total = 0;
    for (const std::int64_t b : arms[i].bins) total += b;
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(arms[i].image_hash));
    pipeline.add_row({std::string(kernels::variant_name(v)),
                      pal::TablePrinter::num(arms[i].total, 7),
                      std::to_string(total), hash});
  }
  pipeline.add_note("dispatch must be invisible: identical virtual times, "
                    "histograms, and images across variants");
  pipeline.print();

  const ArmResult& ref = arms[0];
  for (int i = 1; i < 3; ++i) {
    if (arms[i].total != ref.total) {
      std::fprintf(stderr,
                   "FAIL: %s virtual time %.17g != generic %.17g\n",
                   kernels::variant_name(kArms[i]).data(), arms[i].total,
                   ref.total);
      rc = 1;
    }
    if (arms[i].bins != ref.bins) {
      std::fprintf(stderr, "FAIL: %s histogram differs from generic\n",
                   kernels::variant_name(kArms[i]).data());
      rc = 1;
    }
    if (arms[i].image_hash != ref.image_hash) {
      std::fprintf(stderr, "FAIL: %s image differs from generic\n",
                   kernels::variant_name(kArms[i]).data());
      rc = 1;
    }
  }

  // ---- wall-clock primitive table ----
  const std::vector<PrimitiveTiming> timings = time_primitives();
  pal::TablePrinter wall("Primitive wall clock (" + std::to_string(kN) +
                         " elements, best of " + std::to_string(kReps) +
                         ")");
  wall.set_header({"kernel", "generic (us)", "batched (us)", "simd (us)",
                   "simd speedup", "gate"});
  for (const PrimitiveTiming& t : timings) {
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.2fx", t.speedup());
    wall.add_row({t.name, pal::TablePrinter::num(t.seconds[0] * 1e6, 2),
                  pal::TablePrinter::num(t.seconds[1] * 1e6, 2),
                  pal::TablePrinter::num(t.seconds[2] * 1e6, 2), speedup,
                  t.gated ? ">= 1.20x" : "report"});
    if (kEnforceWallGates && t.gated && t.speedup() < 1.2) {
      std::fprintf(stderr,
                   "FAIL: %s simd speedup %.2fx below the 1.2x floor\n",
                   t.name, t.speedup());
      rc = 1;
    }
  }
  wall.add_note(kEnforceWallGates
                    ? "wall clock is host-dependent; only the two gated rows "
                      "fail the bench, the rest document the machine"
                    : "unoptimized or sanitized build: wall-clock rows are "
                      "informational, gates skipped");
  wall.print();

  const int obs_rc = obs.finish();
  return rc != 0 ? rc : obs_rc;
}
