// Ablation: in transit data reduction under backpressure.
//
// Runs the Fig 8/9 FlexPath pairs workload at every fixed reduction
// level (none / delta / subsample / quantize) and gates the
// bandwidth-vs-fidelity trade the levels are supposed to buy:
//  * bytes moved at quantize must be <= 1/2 of the unreduced stream
//    (the ">= 2x reduction" headline),
//  * lossless levels (delta) must reproduce the endpoint's histogram
//    bins and slice image bit-for-bit,
//  * lossy levels (subsample, quantize) must stay inside documented
//    fidelity bounds (normalized histogram L1, slice mean-abs-diff),
//  * with the controller disabled every arm is rerun and the per-rank
//    virtual clocks must be identical (reduction costs are modeled in
//    virtual time, never wall-clock-dependent).
//
// Two adaptive arms then exercise the backpressure controller:
//  * "pressured": a slow Catalyst-slice endpoint keeps the staging
//    queue saturated, so the controller must raise the level and hold
//    it (io.reduction.level >= 1 at end of run, raises >= 1).
//  * "recovery": a fast histogram endpoint behind the slow Cori reader
//    bootstrap — the seeded backlog forces a raise, the drain must
//    hysteretically lower back to the base level. Run under both
//    sched=threads and sched=mn to pin controller determinism to the
//    virtual clock rather than an execution backend.

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "backends/flexpath.hpp"
#include "bench_common.hpp"
#include "comm/sched.hpp"
#include "io/reduction.hpp"
#include "obs/metrics.hpp"
#include "render/image.hpp"

namespace {

using namespace insitu;
using namespace insitu::bench;

constexpr int kPairs = 4;
constexpr int kSteps = 8;
constexpr int kRecoverySteps = 24;
constexpr int kBins = 64;

enum class Endpoint { kFidelity, kSliceOnly, kHistogramOnly };

struct ArmResult {
  comm::RunReport report;
  std::vector<double> clocks;      ///< per-rank virtual seconds
  std::vector<std::int64_t> bins;  ///< endpoint-root histogram, final step
  std::int64_t bin_total = 0;
  render::Image image;  ///< endpoint-root slice, final step
  double bytes_moved = 0.0;
  double reduction_in = 0.0;
  double reduction_out = 0.0;
  double encode_p99 = 0.0;
  double level_gauge = -1.0;
  double raises = 0.0;
  double lowers = 0.0;
};

const obs::MetricSample* find_sample(const comm::RunReport& report,
                                     const std::string& key) {
  for (const auto& sample : report.metrics) {
    if (sample.key == key) return &sample;
  }
  return nullptr;
}

double sample_value(const comm::RunReport& report, const std::string& key) {
  const obs::MetricSample* s = find_sample(report, key);
  return s == nullptr ? 0.0 : s->value;
}

ArmResult run_arm(const std::string& label,
                  const backends::FlexPathOptions& fp, Endpoint endpoint,
                  int steps, std::optional<comm::SchedBackend> sched,
                  bool record) {
  ArmResult out;
  ObsSession* obs = ObsSession::current();
  comm::Runtime::Options options = ablation_options();
  if (sched.has_value()) options.sched.backend = *sched;
  // The final slice leaves the run as plain pixels: an Image built inside
  // a rank charges that rank's memory tracker, which Runtime::run frees
  // on return, so only the calling thread may build out.image.
  std::vector<render::Rgba> slice_pixels;
  int slice_width = 0;
  int slice_height = 0;

  out.report = comm::Runtime::run(
      2 * kPairs, options, [&](comm::Communicator& world) {
        const bool is_writer = world.rank() < kPairs;
        comm::Communicator group = world.split(is_writer ? 0 : 1, world.rank());
        if (is_writer) {
          miniapp::OscillatorSim sim(group,
                                     ablation_oscillator_config(24, 5.0));
          sim.initialize();
          miniapp::OscillatorDataAdaptor adaptor(sim);
          auto writer = std::make_shared<backends::FlexPathWriter>(
              world, world.rank() + kPairs, fp);
          core::InSituBridge bridge(&group);
          bridge.add_analysis(writer);
          (void)bridge.initialize();
          for (int s = 0; s < steps; ++s) {
            (void)bridge.execute(adaptor, sim.time(), s);
            sim.step();
          }
          (void)bridge.finalize();
        } else {
          core::InSituBridge bridge(&group);
          std::shared_ptr<analysis::HistogramAnalysis> hist;
          std::shared_ptr<backends::CatalystSlice> slice;
          if (endpoint != Endpoint::kSliceOnly) {
            hist = std::make_shared<analysis::HistogramAnalysis>(
                "data", data::Association::kPoint, kBins);
            bridge.add_analysis(hist);
          }
          if (endpoint != Endpoint::kHistogramOnly) {
            backends::CatalystSliceConfig cs;
            cs.image_width = 256;
            cs.image_height = 144;
            cs.scalar_min = -1.5;
            cs.scalar_max = 1.5;
            slice = std::make_shared<backends::CatalystSlice>(cs);
            bridge.add_analysis(slice);
          }
          (void)bridge.initialize();
          backends::FlexPathEndpoint ep(world, world.rank() - kPairs, fp);
          (void)ep.run(group, bridge);
          (void)bridge.finalize();
          if (group.rank() == 0) {
            if (hist != nullptr) {
              out.bins = hist->last_result().bins;
              for (std::int64_t b : out.bins) out.bin_total += b;
            }
            if (slice != nullptr) {
              const render::Image& image = slice->last_image();
              slice_width = image.width();
              slice_height = image.height();
              slice_pixels = image.pixels();
            }
          }
        }
      });
  if (!slice_pixels.empty()) {
    out.image.reset(slice_width, slice_height);
    out.image.pixels() = std::move(slice_pixels);
  }

  for (const auto& rank : out.report.ranks) {
    out.clocks.push_back(rank.virtual_seconds);
  }
  const obs::Labels backend = {{"backend", "flexpath"}};
  const obs::Labels var = {{"backend", "flexpath"}, {"variable", "data"}};
  out.bytes_moved = sample_value(
      out.report, obs::metric_key("comm.bytes_sent", {{"op", "flexpath"}}));
  out.reduction_in =
      sample_value(out.report, obs::metric_key("io.reduction.bytes_in", var));
  out.reduction_out =
      sample_value(out.report, obs::metric_key("io.reduction.bytes_out", var));
  out.level_gauge =
      sample_value(out.report, obs::metric_key("io.reduction.level", var));
  out.raises = sample_value(out.report,
                            obs::metric_key("io.reduction.raises", backend));
  out.lowers = sample_value(out.report,
                            obs::metric_key("io.reduction.lowers", backend));
  const obs::MetricSample* enc = find_sample(
      out.report, obs::metric_key("io.reduction.encode.seconds", backend));
  if (enc != nullptr) out.encode_p99 = obs::histogram_quantile(*enc, 0.99);
  if (obs != nullptr && record) {
    obs->record(label + "/p" + std::to_string(2 * kPairs), out.report);
  }
  return out;
}

/// Normalized L1 distance between two 64-bin histograms (0 = identical,
/// 2 = disjoint).
double histogram_l1(const ArmResult& a, const ArmResult& b) {
  if (a.bins.size() != b.bins.size() || a.bin_total == 0 || b.bin_total == 0) {
    return 2.0;
  }
  double l1 = 0.0;
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    l1 += std::abs(static_cast<double>(a.bins[i]) / a.bin_total -
                   static_cast<double>(b.bins[i]) / b.bin_total);
  }
  return l1;
}

/// Mean absolute per-channel (RGB) difference between two slice images.
double image_mad(const render::Image& a, const render::Image& b) {
  if (a.num_pixels() == 0 || a.num_pixels() != b.num_pixels()) return 255.0;
  double sum = 0.0;
  const auto& pa = a.pixels();
  const auto& pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    sum += std::abs(static_cast<int>(pa[i].r) - static_cast<int>(pb[i].r));
    sum += std::abs(static_cast<int>(pa[i].g) - static_cast<int>(pb[i].g));
    sum += std::abs(static_cast<int>(pa[i].b) - static_cast<int>(pb[i].b));
  }
  return sum / (static_cast<double>(pa.size()) * 3.0);
}

std::string ratio_str(const ArmResult& r) {
  if (r.reduction_out <= 0.0) return "-";
  return pal::TablePrinter::num(r.reduction_in / r.reduction_out, 2) + "x";
}

}  // namespace

int main(int argc, char** argv) {
  ObsSession obs(argc, argv);
  std::printf("=== bench: in transit data reduction ablation ===\n");
  int rc = 0;
  auto fail = [&rc](const std::string& message) {
    std::fprintf(stderr, "FAIL: %s\n", message.c_str());
    rc = 1;
  };

  // --- Fixed-level arms (controller disabled). -------------------------
  std::map<io::ReductionLevel, ArmResult> fixed;
  for (const auto level :
       {io::ReductionLevel::kNone, io::ReductionLevel::kDelta,
        io::ReductionLevel::kSubsample, io::ReductionLevel::kQuantize}) {
    backends::FlexPathOptions fp;
    fp.reader_init_seconds = 1.2;  // match fig08_09's Cori tuning
    // kNone stays disengaged: the baseline stream is the plain BP
    // framing, bit-identical to the pre-reduction transport.
    if (level != io::ReductionLevel::kNone) fp.reduction.level = level;
    const std::string label =
        std::string("reduction-") + io::to_string(level);
    ArmResult first =
        run_arm(label, fp, Endpoint::kFidelity, kSteps, std::nullopt, true);
    const ArmResult second =
        run_arm(label, fp, Endpoint::kFidelity, kSteps, std::nullopt, false);
    if (first.clocks != second.clocks) {
      fail(std::string(io::to_string(level)) +
           ": per-rank virtual clocks differ between identical runs");
    }
    fixed.emplace(level, std::move(first));
  }
  const ArmResult& none = fixed.at(io::ReductionLevel::kNone);
  const ArmResult& delta = fixed.at(io::ReductionLevel::kDelta);
  const ArmResult& subsample = fixed.at(io::ReductionLevel::kSubsample);
  const ArmResult& quantize = fixed.at(io::ReductionLevel::kQuantize);

  // Bandwidth: quantize must at least halve the bytes on the wire.
  if (!(quantize.bytes_moved <= 0.5 * none.bytes_moved)) {
    fail("quantize moved " + std::to_string(quantize.bytes_moved) +
         " bytes, want <= 0.5 * " + std::to_string(none.bytes_moved));
  }
  // Lossless fidelity: delta reconstructs bit-identically, so the
  // endpoint's derived products must match the unreduced run exactly.
  if (delta.bins != none.bins) {
    fail("delta: endpoint histogram differs from the unreduced run");
  }
  if (delta.image.color_hash() != none.image.color_hash()) {
    fail("delta: endpoint slice image differs from the unreduced run");
  }
  // Lossy fidelity: bounded error. Quantize's per-value bound is
  // step/2 (~2.3e-5 of the scalar range here) — derived products stay
  // near-identical. Subsample reconstructs piecewise-constant at
  // stride 2, a visibly coarser but bounded approximation.
  const double sub_l1 = histogram_l1(subsample, none);
  const double quant_l1 = histogram_l1(quantize, none);
  const double sub_mad = image_mad(subsample.image, none.image);
  const double quant_mad = image_mad(quantize.image, none.image);
  if (!(quant_l1 <= 0.02)) {
    fail("quantize: histogram L1 " + std::to_string(quant_l1) + " > 0.02");
  }
  if (!(sub_l1 <= 0.35)) {
    fail("subsample: histogram L1 " + std::to_string(sub_l1) + " > 0.35");
  }
  if (!(quant_mad <= 1.0)) {
    fail("quantize: slice MAD " + std::to_string(quant_mad) + " > 1.0");
  }
  if (!(sub_mad <= 24.0)) {
    fail("subsample: slice MAD " + std::to_string(sub_mad) + " > 24.0");
  }
  // Fixed arms must never touch the controller.
  for (const auto& [level, arm] : fixed) {
    if (arm.raises != 0.0 || arm.lowers != 0.0) {
      fail(std::string(io::to_string(level)) +
           ": controller acted despite adaptive=false");
    }
  }

  pal::TablePrinter table("In transit reduction: bandwidth vs fidelity");
  table.set_header({"level", "bytes moved (MiB)", "ratio", "encode p99 (s)",
                    "hist L1", "slice MAD", "clocks"});
  const double mib = 1024.0 * 1024.0;
  for (const auto& [level, arm] : fixed) {
    table.add_row({io::to_string(level),
                   pal::TablePrinter::num(arm.bytes_moved / mib, 2),
                   ratio_str(arm),
                   pal::TablePrinter::num(arm.encode_p99, 6),
                   pal::TablePrinter::num(histogram_l1(arm, none), 4),
                   pal::TablePrinter::num(image_mad(arm.image, none.image), 2),
                   "identical"});
  }
  table.add_note("ratio = io.reduction.bytes_in / bytes_out (variable=data)");
  table.add_note("fidelity vs the unreduced run; delta is bit-lossless");
  table.print();

  // --- Adaptive arms (controller enabled). -----------------------------
  // Pressured: the Catalyst-slice endpoint is slower than the writer,
  // so the staging queue saturates and the controller must raise the
  // level and hold it for the rest of the run.
  backends::FlexPathOptions pressured_fp;
  pressured_fp.reader_init_seconds = 1.2;
  pressured_fp.reduction.adaptive = true;
  const ArmResult pressured =
      run_arm("adaptive-pressured", pressured_fp, Endpoint::kSliceOnly,
              kSteps, std::nullopt, true);
  if (!(pressured.raises >= 1.0)) {
    fail("pressured: controller never raised under a saturated queue");
  }
  if (!(pressured.level_gauge >= 1.0)) {
    fail("pressured: io.reduction.level ended at " +
         std::to_string(pressured.level_gauge) + ", want >= 1");
  }

  // Recovery: the histogram endpoint outruns the writer once the slow
  // reader bootstrap drains, so every raise must be matched by a
  // hysteretic lower and the run must end back at the base level.
  pal::TablePrinter adaptive("Adaptive controller: raise under pressure, "
                             "hysteretic recovery");
  adaptive.set_header(
      {"arm", "sched", "raises", "lowers", "final level", "job (s)"});
  adaptive.add_row({"pressured (slice endpoint)", "threads",
                    pal::TablePrinter::num(pressured.raises, 0),
                    pal::TablePrinter::num(pressured.lowers, 0),
                    pal::TablePrinter::num(pressured.level_gauge, 0),
                    pal::TablePrinter::num(
                        pressured.report.max_virtual_seconds(), 3)});
  for (const auto& [name, backend] :
       std::vector<std::pair<std::string, comm::SchedBackend>>{
           {"threads", comm::SchedBackend::kThreads},
           {"mn", comm::SchedBackend::kMn}}) {
    backends::FlexPathOptions fp;
    fp.reader_init_seconds = 1.2;  // seeds the backlog the drain recovers
    fp.reduction.adaptive = true;
    const ArmResult recovery =
        run_arm("adaptive-recovery-" + name, fp, Endpoint::kHistogramOnly,
                kRecoverySteps, backend, true);
    if (!(recovery.raises >= 1.0)) {
      fail("recovery/" + name + ": controller never raised");
    }
    if (recovery.lowers != recovery.raises) {
      fail("recovery/" + name + ": " +
           std::to_string(recovery.raises) + " raises vs " +
           std::to_string(recovery.lowers) +
           " lowers; queue drain should lower back to base");
    }
    if (recovery.level_gauge != 0.0) {
      fail("recovery/" + name + ": final io.reduction.level " +
           std::to_string(recovery.level_gauge) + ", want 0");
    }
    adaptive.add_row({"recovery (histogram endpoint)", name,
                      pal::TablePrinter::num(recovery.raises, 0),
                      pal::TablePrinter::num(recovery.lowers, 0),
                      pal::TablePrinter::num(recovery.level_gauge, 0),
                      pal::TablePrinter::num(
                          recovery.report.max_virtual_seconds(), 3)});
  }
  adaptive.add_note("signal = outstanding staged steps (+1 when the submit "
                    "stalled); raise at >= 3, lower at <= 2 after 2 calm "
                    "steps");
  adaptive.print();

  if (rc == 0) std::printf("all reduction ablation gates passed\n");
  return rc != 0 ? rc : obs.finish();
}
