// The kernel variant is a per-run option (Runtime::Options::kernels).
// One pipeline that calls every dispatched primitive — the oscillator
// field, histogram, autocorrelation, a composited Catalyst slice, a
// derived magnitude and the three in transit reduction levels — runs
// under every variant and both scheduler backends, with parallel_for
// helpers on. Every run must reproduce the generic run's per-rank
// virtual times, histogram, image, autocorrelation peaks, magnitudes and
// reduction streams bit for bit, and publish kernels.* series under its
// own variant only.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/autocorrelation.hpp"
#include "analysis/derived.hpp"
#include "analysis/histogram.hpp"
#include "backends/catalyst.hpp"
#include "comm/runtime.hpp"
#include "core/bridge.hpp"
#include "data/image_data.hpp"
#include "exec/task_pool.hpp"
#include "io/reduction.hpp"
#include "kernels/kernels.hpp"
#include "miniapp/adaptor.hpp"

namespace insitu {
namespace {

constexpr int kRanks = 4;
constexpr int kSteps = 3;

/// FNV-1a over raw bytes: equal hashes stand for equal bits here.
std::uint64_t fnv(const void* data, std::size_t n,
                  std::uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ull;
  }
  return h;
}

/// Hash of every field of every ImageData block, in block and name order.
std::uint64_t mesh_hash(const data::MultiBlockDataSet& mesh) {
  std::uint64_t h = fnv(nullptr, 0);
  for (std::size_t b = 0; b < mesh.num_local_blocks(); ++b) {
    const auto* image = dynamic_cast<const data::ImageData*>(mesh.block(b).get());
    if (image == nullptr) continue;
    for (const auto assoc :
         {data::Association::kPoint, data::Association::kCell}) {
      for (const std::string& name : image->fields(assoc).names()) {
        const std::vector<std::byte> bytes =
            image->fields(assoc).get(name)->to_bytes();
        h = fnv(bytes.data(), bytes.size(), h);
      }
    }
  }
  return h;
}

miniapp::OscillatorConfig sim_config() {
  miniapp::OscillatorConfig cfg;
  cfg.global_cells = {12, 12, 12};
  cfg.dt = 0.05;
  cfg.oscillators = {
      {miniapp::Oscillator::Kind::kPeriodic, {6.0, 6.0, 6.0}, 2.5,
       2.0 * M_PI, 0.0},
      {miniapp::Oscillator::Kind::kDamped, {3.0, 6.0, 8.0}, 2.0, 3.0, 0.1},
  };
  return cfg;
}

/// Everything one run computes that the variant must not change.
struct RunOutput {
  std::vector<double> virtual_seconds;  ///< per rank
  std::vector<std::int64_t> bins;       ///< root
  std::uint64_t image_hash = 0;         ///< root
  std::vector<double> peaks;            ///< root, autocorrelation
  std::vector<std::uint64_t> magnitude_hash;  ///< per rank
  /// Per rank and reduction level: encoded stream, then reconstruction.
  std::vector<std::vector<std::uint64_t>> reduction_hash;
  /// Kernel names with a kernels.calls series, and every variant label
  /// seen on a kernels.* series.
  std::set<std::string> kernels_called;
  std::set<std::string> variants_seen;
  int lossless_mismatches = 0;
};

RunOutput run_pipeline(kernels::Variant variant, comm::SchedBackend backend) {
  RunOutput out;
  out.magnitude_hash.resize(kRanks);
  out.reduction_hash.resize(kRanks);
  int lossless_mismatches[kRanks] = {};

  comm::Runtime::Options options;
  options.seed = 7;
  options.sched.backend = backend;
  options.sched.workers = 2;
  options.kernels = variant;
  const comm::RunReport report = comm::Runtime::run(
      kRanks, options, [&](comm::Communicator& comm) {
        const auto rank = static_cast<std::size_t>(comm.rank());
        miniapp::OscillatorSim sim(comm, sim_config());
        sim.initialize();
        miniapp::OscillatorDataAdaptor adaptor(sim);

        auto hist = std::make_shared<analysis::HistogramAnalysis>(
            "data", data::Association::kPoint, 16);
        auto autocorr = std::make_shared<analysis::Autocorrelation>(
            "data", data::Association::kPoint, 2, 3);
        backends::CatalystSliceConfig cs;
        cs.image_width = 64;
        cs.image_height = 36;
        cs.scalar_min = -1.5;
        cs.scalar_max = 1.5;
        auto slice = std::make_shared<backends::CatalystSlice>(cs);

        core::InSituBridge bridge(&comm);
        bridge.add_analysis(hist);
        bridge.add_analysis(autocorr);
        bridge.add_analysis(slice);
        ASSERT_TRUE(bridge.initialize().ok());

        const io::ReductionLevel levels[] = {io::ReductionLevel::kDelta,
                                             io::ReductionLevel::kSubsample,
                                             io::ReductionLevel::kQuantize};
        std::vector<io::ReductionPipeline> encoders(3), decoders(3);
        for (int s = 0; s < kSteps; ++s) {
          sim.step();
          ASSERT_TRUE(bridge.execute(adaptor, sim.time(), s).ok());

          auto mesh = adaptor.full_mesh();
          ASSERT_TRUE(mesh.ok());
          for (std::size_t l = 0; l < 3; ++l) {
            std::vector<std::byte> stream;
            encoders[l].encode(**mesh, levels[l], stream);
            auto back = decoders[l].decode(stream);
            ASSERT_TRUE(back.ok());
            const std::uint64_t recon = mesh_hash(**back);
            if (levels[l] == io::ReductionLevel::kDelta &&
                recon != mesh_hash(**mesh)) {
              ++lossless_mismatches[rank];
            }
            out.reduction_hash[rank].push_back(
                fnv(stream.data(), stream.size()));
            out.reduction_hash[rank].push_back(recon);
          }

          // A 3-component field derived from the sim's values.
          const std::vector<double>& v = sim.values();
          const auto n = static_cast<std::int64_t>(v.size());
          const data::DataArrayPtr vec =
              data::DataArray::create<double>("v", n, 3);
          for (std::int64_t i = 0; i < n; ++i) {
            const double x = v[static_cast<std::size_t>(i)];
            vec->set(i, 0, x);
            vec->set(i, 1, 2.0 * x - 1.0);
            vec->set(i, 2, std::sin(x));
          }
          auto magnitude = analysis::velocity_magnitude(*vec, "mag");
          ASSERT_TRUE(magnitude.ok());
          const std::vector<std::byte> bytes = (*magnitude)->to_bytes();
          out.magnitude_hash[rank] =
              fnv(bytes.data(), bytes.size(), out.magnitude_hash[rank]);
          ASSERT_TRUE(adaptor.release_data().ok());
        }
        ASSERT_TRUE(bridge.finalize().ok());
        if (comm.rank() == 0) {
          out.bins = hist->last_result().bins;
          out.image_hash = slice->last_image().color_hash();
          for (const auto& delay : autocorr->top_peaks()) {
            for (const auto& peak : delay) out.peaks.push_back(peak.correlation);
          }
        }
      });
  EXPECT_FALSE(report.failed) << report.failure_message;
  for (const comm::RankStats& r : report.ranks) {
    out.virtual_seconds.push_back(r.virtual_seconds);
  }
  for (const int m : lossless_mismatches) out.lossless_mismatches += m;
  for (const obs::MetricSample& sample : report.metrics) {
    if (sample.key.rfind("kernels.", 0) != 0) continue;
    const std::size_t kernel = sample.key.find("kernel=");
    const std::size_t var = sample.key.find("variant=");
    if (kernel == std::string::npos || var == std::string::npos) continue;
    const std::size_t kernel_end = sample.key.find_first_of(",}", kernel);
    const std::size_t var_end = sample.key.find_first_of(",}", var);
    out.variants_seen.insert(sample.key.substr(var + 8, var_end - var - 8));
    if (sample.key.rfind("kernels.calls{", 0) == 0) {
      out.kernels_called.insert(
          sample.key.substr(kernel + 7, kernel_end - kernel - 7));
    }
  }
  return out;
}

TEST(KernelVariantRuns, EveryVariantMatchesGenericUnderBothSchedulers) {
  // Two kernel threads: under sched=threads, parallel_for chunks run on
  // the shared pool's helper and must dispatch the run's variant too.
  exec::set_global_threads(2);
  const kernels::Variant variants[] = {kernels::Variant::kGeneric,
                                       kernels::Variant::kBatched,
                                       kernels::Variant::kSimd};
  std::set<std::string> generic_called;
  for (const comm::SchedBackend backend :
       {comm::SchedBackend::kThreads, comm::SchedBackend::kMn}) {
    const RunOutput ref = run_pipeline(kernels::Variant::kGeneric, backend);
    ASSERT_EQ(ref.virtual_seconds.size(), static_cast<std::size_t>(kRanks));
    ASSERT_FALSE(ref.bins.empty());
    ASSERT_FALSE(ref.peaks.empty());
    generic_called.insert(ref.kernels_called.begin(),
                          ref.kernels_called.end());
    for (const kernels::Variant v : variants) {
      const RunOutput got =
          v == kernels::Variant::kGeneric ? ref : run_pipeline(v, backend);
      const std::string what = std::string(kernels::variant_name(v)) + "/" +
                               comm::to_string(backend);
      EXPECT_EQ(got.virtual_seconds, ref.virtual_seconds) << what;
      EXPECT_EQ(got.bins, ref.bins) << what;
      EXPECT_EQ(got.image_hash, ref.image_hash) << what;
      EXPECT_EQ(got.peaks, ref.peaks) << what;
      EXPECT_EQ(got.magnitude_hash, ref.magnitude_hash) << what;
      EXPECT_EQ(got.reduction_hash, ref.reduction_hash) << what;
      EXPECT_EQ(got.lossless_mismatches, 0) << what;
      // Only this run's variant (simd may run as batched on CPUs
      // without AVX2+FMA, and is then labeled batched).
      const std::string own(
          kernels::variant_name(kernels::StatsSink(v).variant()));
      EXPECT_EQ(got.variants_seen, std::set<std::string>{own}) << what;
    }
  }
  exec::set_global_threads(1);
  // The generic runs together called every dispatched primitive.
  for (int k = 0; k < kernels::kNumKernels; ++k) {
    const std::string name =
        kernels::kernel_name(static_cast<kernels::KernelId>(k));
    EXPECT_EQ(generic_called.count(name), 1u) << name << " never called";
  }
  EXPECT_EQ(generic_called.size(),
            static_cast<std::size_t>(kernels::kNumKernels));
}

}  // namespace
}  // namespace insitu
