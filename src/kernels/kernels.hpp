#pragma once

// kernels:: — SIMD-friendly compute primitives behind runtime dispatch.
//
// Every inner loop that dominates a per-step in situ cost (histogram
// binning, moment reduction, lag products, pseudocolor lookup, depth
// compositing, scanline interpolation, oscillator field evaluation) is
// expressed once here as a primitive with three interchangeable
// implementations:
//
//   * generic — the scalar reference, compiled with auto-vectorization
//     disabled. This is the semantics contract every other variant is
//     tested against (tests/kernels_test.cpp).
//   * batched — the same element expressions restructured into long
//     branch-free strips that GCC/Clang auto-vectorize at -O2.
//   * simd    — explicit 4x double / 8x float lanes via the compiler's
//     portable vector extensions (no intrinsics headers), plus scalar
//     tails.
//
// The variant is chosen per run, never by process state: it rides on the
// StatsSink a thread adopts through ScopedStatsSink (comm::Runtime::run
// builds one per run from Runtime::Options::kernels, and every rank
// thread, fiber carrier and TaskPool task adopts it). Code outside any
// run picks a variant the same way, with a scoped sink of its own; with
// no sink a thread dispatches default_variant(). A dispatch is one
// thread-local read plus an indirect call. Call sites are not all
// chunk-sized: the oscillator field makes one call per x-row per
// oscillator (rows of a few dozen points), so a rank makes thousands of
// short calls per step and the per-call cost counts — see the counters
// below.
//
// Determinism contract (docs/PERFORMANCE.md "Kernel dispatch"):
//   * Kernels never touch the virtual clock; call sites charge the same
//     modeled cost regardless of variant, so virtual times are
//     byte-identical across variants.
//   * Per-element-independent kernels (binning index math, colormap,
//     interpolation, depth test, plane distance, oscillator field) use
//     the same per-element operation order in every variant and the
//     library is built with -ffp-contract=off, so their results are
//     bit-identical across variants.
//   * The sum / sum-of-squares of reduce_moments reassociate across
//     lanes; only its min/max/count are exact. Callers that need
//     cross-variant bit-identity must not depend on the sum bits (they
//     may depend on values derived from exact-integer sums).
//
// Layering: kernels depends on nothing but the C++ standard library; it
// sits below pal so every layer (miniapp, analysis, render, comm) can
// call it. Because it cannot see obs, it keeps its own counters per
// (kernel, variant), in one cache-line-aligned block per dispatching
// thread. Only the owning thread writes its block (a relaxed load and a
// relaxed store, no read-modify-write), so concurrent ranks never share
// a counter line. stats_snapshot() sums every block for process totals;
// a StatsSink collects the counts of the threads that adopt it, which
// is how comm::Runtime::run publishes exactly its own run's dispatches
// as kernels.* metrics (docs/PERFORMANCE.md "Dispatch counters").

#include <cstdint>
#include <mutex>
#include <optional>
#include <string_view>

namespace insitu::kernels {

// ---- dispatch ----

enum class Variant : int {
  kGeneric = 0,  ///< scalar reference (no auto-vectorization)
  kBatched = 1,  ///< auto-vectorizable strip-mined loops
  kSimd = 2,     ///< explicit compiler-vector lanes
};

inline constexpr int kNumVariants = 3;

/// The variant a run dispatches to unless it asks for another: kSimd
/// where the CPU has AVX2+FMA (or the build does not need them), else
/// kBatched. The fastest variant is the default; the reference is opt-in.
Variant default_variant();

/// The variant the calling thread dispatches to: its innermost
/// ScopedStatsSink's sink's, or default_variant() without one.
Variant active_variant();

/// "generic" | "batched" | "simd"; nullopt for anything else.
std::optional<Variant> parse_variant(std::string_view name);

std::string_view variant_name(Variant v);

// ---- per-(kernel, variant) counters ----

enum class KernelId : int {
  kReduceMoments = 0,
  kHistogramBin,
  kAccumulateI64,
  kFmaAccumulate,
  kColormap,
  kDepthComposite,
  kRasterSpan,
  kMaskedStore,
  kPlaneDistance,
  kMagnitude3,
  kOscillator,
  kQuantizeEncode,
  kQuantizeDecode,
  kDeltaEncode,
  kDeltaDecode,
  kSubsampleGather,
  kSubsampleExpand,
  kCount,
};

inline constexpr int kNumKernels = static_cast<int>(KernelId::kCount);

const char* kernel_name(KernelId id);

struct KernelStats {
  std::uint64_t calls = 0;
  std::uint64_t elements = 0;  ///< elements processed
  std::uint64_t bytes = 0;     ///< bytes read + written (modeled)
};

/// Counters indexed [kernel][variant].
struct StatsSnapshot {
  KernelStats s[kNumKernels][kNumVariants];
};

/// Process totals: the sum over every thread's block, including blocks
/// of threads that have exited (blocks are never freed or zeroed).
/// Publish deltas between two snapshots, never the absolute values (the
/// process accumulates across runs). Exact once the dispatching threads
/// have joined or otherwise synchronized with the caller.
StatsSnapshot stats_snapshot();

class StatsSink;

/// The sink the calling thread's innermost ScopedStatsSink charges, or
/// null.
StatsSink* current_stats_sink();

/// Selects the variant of, and collects the kernel dispatches of, every
/// thread that adopts it through a ScopedStatsSink: while a thread's
/// innermost scope names this sink, its calls dispatch to variant() and
/// their counts are added here when that scope ends or is nested.
/// comm::Runtime::run owns one per run; exec::TaskPool tasks adopt the
/// sink their submitter had, so parallel_for helper chunks and fiber
/// carriers run and count as the caller's run.
class StatsSink {
 public:
  /// kSimd downgrades to kBatched on CPUs without AVX2+FMA.
  explicit StatsSink(Variant variant = default_variant());

  Variant variant() const { return variant_; }

  /// Counts flushed so far (exact once every adopting scope has ended).
  StatsSnapshot snapshot() const;

 private:
  friend class ScopedStatsSink;

  const Variant variant_;
  mutable std::mutex mutex_;
  StatsSnapshot total_{};
};

/// Dispatches the calling thread's kernels to `sink`'s variant and
/// charges them to `sink` from construction until destruction (null: to
/// no sink, at default_variant()). Scopes nest: an inner scope flushes
/// the outer one's counts first, and the outer scope's variant and
/// counting resume when it ends.
/// Thread-confined: never hold one across a fiber park, since the fiber
/// may resume on another thread.
class ScopedStatsSink {
 public:
  explicit ScopedStatsSink(StatsSink* sink);
  ~ScopedStatsSink();
  ScopedStatsSink(const ScopedStatsSink&) = delete;
  ScopedStatsSink& operator=(const ScopedStatsSink&) = delete;

 private:
  friend StatsSink* current_stats_sink();
  void flush();

  StatsSink* sink_;
  ScopedStatsSink* outer_;
  StatsSnapshot mark_;  ///< this thread's block when counting last began
};

// ---- primitives ----

/// Fused min/max/sum/sum-of-squares reduction.
struct Moments {
  double min;    ///< +max() when count == 0
  double max;    ///< lowest() when count == 0
  double sum;
  double sum_sq;
  std::int64_t count;
};

/// Reduce over x[0..n). `skip` (nullable) marks elements to ignore
/// (skip[i] != 0). Min/max use the select `v < mn ? v : mn` — NaN
/// elements never replace the accumulator — and are exact across
/// variants; sum/sum_sq reassociate.
Moments reduce_moments(const double* x, std::int64_t n,
                       const std::uint8_t* skip);

/// Histogram binning: for each unskipped element,
///   scaled = (x[i] - min_value) / width * num_bins
///   bin    = scaled in [0, num_bins) ? trunc(scaled)
///            : scaled >= num_bins    ? num_bins - 1 : 0   (NaN -> 0)
///   ++bins[bin]
/// Matches the historical cast-then-clamp for every input where that
/// cast was defined, and is defined (bin 0) for NaN. Bit-identical
/// across variants. `bins` is accumulated into, not cleared.
void histogram_bin(const double* x, std::int64_t n, const std::uint8_t* skip,
                   double min_value, double width, int num_bins,
                   std::int64_t* bins);

/// dst[i] += src[i]. Exact (integer); the merge step of thread-private
/// histogram bins (callers tree-merge with this).
void accumulate_i64(std::int64_t* dst, const std::int64_t* src,
                    std::int64_t n);

/// dst[i] += a[i] * b[i] (lag/correlation products). Per-element
/// independent: bit-identical across variants.
void fma_accumulate(double* dst, const double* a, const double* b,
                    std::int64_t n);

/// a + (b - a) * t — linear edge interpolation, one element at a time
/// (contour edge cuts).
inline double lerp1(double a, double b, double t) { return a + (b - a) * t; }

/// Piecewise-linear colormap lookup over `ncontrols >= 2` RGBA8 control
/// colors (4 bytes each), domain [lo, hi]:
///   t = hi > lo ? (s - lo) / (hi - lo) : 0.5, clamped to [0, 1]
///   (NaN s maps like t = 0; the historical code was undefined there)
///   scaled = t * (ncontrols - 1); idx = min(trunc(scaled), ncontrols-2)
///   channel = lround(a + (scaled - idx) * (b - a))
/// `out` receives 4 * n bytes. Bit-identical across variants.
void colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                    const std::uint8_t* controls, int ncontrols,
                    std::uint8_t* out);

/// Z-buffer composite: where src_d[i] < dst_d[i], copy the RGBA8 pixel
/// and the depth. Colors are raw 4-byte pixels. NaN src depth never
/// wins. Bit-identical across variants.
void depth_composite(std::uint8_t* dst_color, float* dst_depth,
                     const std::uint8_t* src_color, const float* src_depth,
                     std::int64_t n);

/// Triangle setup for raster_span: screen coords, per-vertex depth and
/// scalar, and the precomputed signed inverse area.
struct RasterTri {
  double ax, ay, adepth, ascalar;
  double bx, by, bdepth, bscalar;
  double cx, cy, cdepth, cscalar;
  double inv_area;
};

/// Evaluate one scanline span: for i in [0, n), the pixel center is
/// (x0 + i + 0.5, py). Writes the interpolated float depth, the
/// interpolated scalar, and inside[i] = 1 when the pixel passes both the
/// barycentric test (w0, w1, w2 all >= 0; NaN accepts, matching the
/// reference rasterizer) and the depth test
/// !(depth >= dst_depth[i] || depth <= 0). Bit-identical across
/// variants.
void raster_span(const RasterTri& tri, double py, int x0, std::int64_t n,
                 const float* dst_depth, float* depth, double* scalar,
                 std::uint8_t* inside);

/// Store span results where inside[i] != 0: dst color (4 bytes/pixel)
/// and depth. Returns the number of pixels stored.
std::int64_t masked_store_span(std::uint8_t* dst_color, float* dst_depth,
                               const std::uint8_t* colors, const float* depth,
                               const std::uint8_t* inside, std::int64_t n);

/// out[i] = ((x[i]-ox)*nx + (y[i]-oy)*ny) + (z[i]-oz)*nz — signed
/// distance to the plane through (ox,oy,oz) with normal (nx,ny,nz),
/// matching Vec3::dot's association. Bit-identical across variants.
void plane_distance(const double* x, const double* y, const double* z,
                    std::int64_t n, double ox, double oy, double oz,
                    double nx, double ny, double nz, double* out);

/// dst[i] = sqrt((u*u + v*v) + w*w) over strided component streams
/// (u[i * su] etc.; stride 1 = contiguous). Bit-identical across
/// variants (sqrt is correctly rounded).
void magnitude3(const double* u, std::int64_t su, const double* v,
                std::int64_t sv, const double* w, std::int64_t sw,
                std::int64_t n, double* dst);

/// Oscillator row accumulation: for i in [0, n),
///   x  = ox + sx * (double)(i0 + i)          (grid point coordinate)
///   r2 = ((x-cx)^2 + dyy) + dzz              (dyy/dzz: precomputed
///                                             (y-cy)^2, (z-cz)^2)
///   dst[i] += exp(-r2 / denom) * tf
/// `denom` is the caller's (2 * radius) * radius; `tf` the hoisted
/// time factor. All variants call scalar std::exp so the field is
/// bit-identical across variants; only the coordinate/argument math is
/// vectorized.
void oscillator_accumulate(double* dst, std::int64_t n, double ox, double sx,
                           std::int64_t i0, double dyy, double dzz, double cx,
                           double denom, double tf);

// ---- data-reduction primitives (io::ReductionPipeline) ----
//
// The in transit reduction stage (docs/PERFORMANCE.md "In transit data
// reduction") is built from these. All of them are per-element
// independent and bit-identical across variants: the quantizer is pure
// compare/convert arithmetic, delta is integer XOR, subsample is copies.

/// Fixed-rate 16-bit quantizer, encode direction. For each element:
///   t    = (x[i] - lo) * inv_step + 0.5
///   code = t in [0, 65536) ? trunc(t) : t >= 65536 ? 65535 : 0
/// i.e. round-to-nearest with saturation; negative-out-of-range and NaN
/// map to code 0. With inv_step = 1/step and step = (max-min)/65535 the
/// reconstruction error is bounded by step/2 for all finite in-range
/// inputs (io::reduction.hpp documents the block framing that picks
/// lo/step). Bit-identical across variants.
void quantize_encode(const double* x, std::int64_t n, double lo,
                     double inv_step, std::uint16_t* out);

/// Quantizer decode: out[i] = lo + q[i] * step. Bit-identical across
/// variants.
void quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                     double step, double* out);

/// Delta-vs-previous-step encode: out[i] = bits(x[i]) XOR bits(prev[i])
/// (raw IEEE-754 bit patterns). Lossless: delta_decode reconstructs x
/// bit-exactly for every input including NaN payloads, denormals and
/// signed zeros. Bit-identical across variants.
void delta_encode(const double* x, const double* prev, std::int64_t n,
                  std::uint64_t* out);

/// Inverse of delta_encode: out[i] = from_bits(delta[i] XOR
/// bits(prev[i])). Bit-identical across variants.
void delta_decode(const std::uint64_t* delta, const double* prev,
                  std::int64_t n, double* out);

/// Stride-decimation gather over `n_tuples` tuples of `components`
/// doubles: keeps tuples 0, stride, 2*stride, … writing them
/// contiguously to `out`. Returns the kept-tuple count,
/// (n_tuples + stride - 1) / stride. Bit-identical across variants
/// (pure copies).
std::int64_t subsample_gather(const double* x, std::int64_t n_tuples,
                              int components, int stride, double* out);

/// Inverse expansion: out tuple t = kept tuple t / stride (nearest
/// previous kept tuple — piecewise-constant reconstruction). Bit-identical
/// across variants.
void subsample_expand(const double* kept, std::int64_t n_tuples,
                      int components, int stride, double* out);

}  // namespace insitu::kernels
