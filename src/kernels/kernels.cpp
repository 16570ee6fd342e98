#include "kernels/kernels.hpp"

#include <atomic>
#include <mutex>
#include <vector>

#include "kernels/table.hpp"

namespace insitu::kernels {

namespace {

const detail::KernelTable* table_for(Variant v) {
  switch (v) {
    case Variant::kGeneric: return &detail::kGenericTable;
    case Variant::kBatched: return &detail::kBatchedTable;
    case Variant::kSimd: return &detail::kSimdTable;
  }
  return &detail::kGenericTable;
}

/// True when the explicit-SIMD TU's code can run on this CPU. The build
/// may compile simd.cpp for x86-64-v3 (AVX2 + FMA); dispatching there on
/// an older core would be an illegal instruction, so variant selection
/// downgrades kSimd to kBatched when the CPU lacks the ISA.
bool simd_supported() {
#if defined(INSITU_SIMD_NEEDS_AVX2)
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return true;
#endif
}

Variant clamp_supported(Variant v) {
  return v == Variant::kSimd && !simd_supported() ? Variant::kBatched : v;
}

/// One thread's counters, one row per variant. Single writer: only the
/// thread that leased the block stores to it, so a bump is a relaxed load
/// plus a relaxed store (no read-modify-write), and the alignment keeps
/// two threads' blocks off each other's cache lines. Readers
/// (stats_snapshot, sink flushes) load relaxed; they are exact once the
/// writer synchronized with them.
struct alignas(64) StatBlock {
  struct Cell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> elements{0};
    std::atomic<std::uint64_t> bytes{0};
  };
  Cell cells[kNumVariants][kNumKernels];
};

/// Every block ever leased, plus the ones whose thread has exited. Blocks
/// are never freed or zeroed, so the summed totals stay monotonic; a
/// returned block is handed to the next new thread, and the mutex orders
/// the old owner's last store before the new owner's first load.
struct Registry {
  std::mutex mutex;
  std::vector<StatBlock*> all;
  std::vector<StatBlock*> free;
};

/// Leaked on purpose: threads may exit (and return their block) after
/// static destruction has begun.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// What a dispatch reads: the table of the thread's variant and the
/// thread's counter row for it. Null until the thread's first dispatch or
/// scope; constant-initialized, so reading it is one thread-local access.
struct Dispatch {
  const detail::KernelTable* table = nullptr;
  StatBlock::Cell* row = nullptr;
};

thread_local Dispatch t_dispatch;
thread_local StatBlock* t_block = nullptr;
thread_local ScopedStatsSink* t_scope = nullptr;  // innermost scope

/// Returns the thread's block to the free list when the thread exits.
struct BlockLease {
  ~BlockLease() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.free.push_back(t_block);
    t_block = nullptr;
    t_dispatch = Dispatch{};
  }
};

StatBlock* lease_block() {
  Registry& r = registry();
  StatBlock* block = nullptr;
  {
    std::lock_guard<std::mutex> lock(r.mutex);
    if (!r.free.empty()) {
      block = r.free.back();
      r.free.pop_back();
    } else {
      block = new StatBlock;
      r.all.push_back(block);
    }
  }
  t_block = block;
  static thread_local BlockLease lease;  // returns it at thread exit
  (void)lease;
  return block;
}

StatBlock& own_block() {
  StatBlock* block = t_block;
  return block != nullptr ? *block : *lease_block();
}

inline void add_relaxed(std::atomic<std::uint64_t>& counter,
                        std::uint64_t delta) {
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

/// Points the calling thread's dispatches at `v`.
void select(Variant v) {
  t_dispatch = Dispatch{table_for(v),
                        own_block().cells[static_cast<int>(v)]};
}

/// Counts one call on the calling thread and returns the table of its
/// variant.
inline const detail::KernelTable& dispatch(KernelId id,
                                           std::int64_t elements,
                                           std::int64_t bytes) {
  if (t_dispatch.table == nullptr) [[unlikely]] select(active_variant());
  const Dispatch d = t_dispatch;
  StatBlock::Cell& c = d.row[static_cast<int>(id)];
  add_relaxed(c.calls, 1);
  add_relaxed(c.elements, static_cast<std::uint64_t>(elements));
  add_relaxed(c.bytes, static_cast<std::uint64_t>(bytes));
  return *d.table;
}

KernelStats load(const StatBlock::Cell& c) {
  return KernelStats{c.calls.load(std::memory_order_relaxed),
                     c.elements.load(std::memory_order_relaxed),
                     c.bytes.load(std::memory_order_relaxed)};
}

void accumulate(KernelStats& into, const KernelStats& d) {
  into.calls += d.calls;
  into.elements += d.elements;
  into.bytes += d.bytes;
}

StatsSnapshot read_block(const StatBlock& block) {
  StatsSnapshot out;
  for (int k = 0; k < kNumKernels; ++k) {
    for (int v = 0; v < kNumVariants; ++v) {
      out.s[k][v] = load(block.cells[v][k]);
    }
  }
  return out;
}

}  // namespace

Variant default_variant() {
  return clamp_supported(Variant::kSimd);
}

Variant active_variant() {
  const StatsSink* sink = current_stats_sink();
  return sink != nullptr ? sink->variant() : default_variant();
}

std::optional<Variant> parse_variant(std::string_view name) {
  for (const Variant v : {Variant::kGeneric, Variant::kBatched,
                          Variant::kSimd}) {
    if (name == variant_name(v)) return v;
  }
  return std::nullopt;
}

std::string_view variant_name(Variant v) {
  switch (v) {
    case Variant::kGeneric: return "generic";
    case Variant::kBatched: return "batched";
    case Variant::kSimd: return "simd";
  }
  return "?";
}

const char* kernel_name(KernelId id) {
  switch (id) {
    case KernelId::kReduceMoments: return "reduce_moments";
    case KernelId::kHistogramBin: return "histogram_bin";
    case KernelId::kAccumulateI64: return "accumulate_i64";
    case KernelId::kFmaAccumulate: return "fma_accumulate";
    case KernelId::kColormap: return "colormap";
    case KernelId::kDepthComposite: return "depth_composite";
    case KernelId::kRasterSpan: return "raster_span";
    case KernelId::kMaskedStore: return "masked_store";
    case KernelId::kPlaneDistance: return "plane_distance";
    case KernelId::kMagnitude3: return "magnitude3";
    case KernelId::kOscillator: return "oscillator";
    case KernelId::kQuantizeEncode: return "quantize_encode";
    case KernelId::kQuantizeDecode: return "quantize_decode";
    case KernelId::kDeltaEncode: return "delta_encode";
    case KernelId::kDeltaDecode: return "delta_decode";
    case KernelId::kSubsampleGather: return "subsample_gather";
    case KernelId::kSubsampleExpand: return "subsample_expand";
    case KernelId::kCount: break;
  }
  return "?";
}

StatsSnapshot stats_snapshot() {
  StatsSnapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const StatBlock* block : r.all) {
    for (int k = 0; k < kNumKernels; ++k) {
      for (int v = 0; v < kNumVariants; ++v) {
        accumulate(snap.s[k][v], load(block->cells[v][k]));
      }
    }
  }
  return snap;
}

StatsSink::StatsSink(Variant variant) : variant_(clamp_supported(variant)) {}

StatsSnapshot StatsSink::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

ScopedStatsSink::ScopedStatsSink(StatsSink* sink)
    : sink_(sink), outer_(t_scope), mark_(read_block(own_block())) {
  if (outer_ != nullptr) outer_->flush();
  t_scope = this;
  select(active_variant());
}

ScopedStatsSink::~ScopedStatsSink() {
  flush();
  t_scope = outer_;
  if (outer_ != nullptr) outer_->mark_ = read_block(own_block());
  select(active_variant());
}

/// Adds the thread's counts since mark_ to the sink and moves the mark.
/// Only this thread writes its block, and the block only grows, so each
/// difference is exactly the calls made while this scope was innermost.
void ScopedStatsSink::flush() {
  const StatsSnapshot now = read_block(own_block());
  if (sink_ != nullptr) {
    std::lock_guard<std::mutex> lock(sink_->mutex_);
    for (int k = 0; k < kNumKernels; ++k) {
      for (int v = 0; v < kNumVariants; ++v) {
        const KernelStats& n = now.s[k][v];
        const KernelStats& m = mark_.s[k][v];
        accumulate(sink_->total_.s[k][v],
                   KernelStats{n.calls - m.calls, n.elements - m.elements,
                               n.bytes - m.bytes});
      }
    }
  }
  mark_ = now;
}

StatsSink* current_stats_sink() {
  return t_scope != nullptr ? t_scope->sink_ : nullptr;
}

// ---- dispatching wrappers ----

Moments reduce_moments(const double* x, std::int64_t n,
                       const std::uint8_t* skip) {
  return dispatch(KernelId::kReduceMoments, n, n * (skip != nullptr ? 9 : 8))
      .reduce_moments(x, n, skip);
}

void histogram_bin(const double* x, std::int64_t n, const std::uint8_t* skip,
                   double min_value, double width, int num_bins,
                   std::int64_t* bins) {
  dispatch(KernelId::kHistogramBin, n,
           n * (skip != nullptr ? 9 : 8) +
               static_cast<std::int64_t>(num_bins) * 8)
      .histogram_bin(x, n, skip, min_value, width, num_bins, bins);
}

void accumulate_i64(std::int64_t* dst, const std::int64_t* src,
                    std::int64_t n) {
  dispatch(KernelId::kAccumulateI64, n, n * 24).accumulate_i64(dst, src, n);
}

void fma_accumulate(double* dst, const double* a, const double* b,
                    std::int64_t n) {
  dispatch(KernelId::kFmaAccumulate, n, n * 32).fma_accumulate(dst, a, b, n);
}

void colormap_apply(const double* s, std::int64_t n, double lo, double hi,
                    const std::uint8_t* controls, int ncontrols,
                    std::uint8_t* out) {
  dispatch(KernelId::kColormap, n, n * 12)
      .colormap_apply(s, n, lo, hi, controls, ncontrols, out);
}

void depth_composite(std::uint8_t* dst_color, float* dst_depth,
                     const std::uint8_t* src_color, const float* src_depth,
                     std::int64_t n) {
  dispatch(KernelId::kDepthComposite, n, n * 24)
      .depth_composite(dst_color, dst_depth, src_color, src_depth, n);
}

void raster_span(const RasterTri& tri, double py, int x0, std::int64_t n,
                 const float* dst_depth, float* depth, double* scalar,
                 std::uint8_t* inside) {
  dispatch(KernelId::kRasterSpan, n, n * 17)
      .raster_span(tri, py, x0, n, dst_depth, depth, scalar, inside);
}

std::int64_t masked_store_span(std::uint8_t* dst_color, float* dst_depth,
                               const std::uint8_t* colors, const float* depth,
                               const std::uint8_t* inside, std::int64_t n) {
  return dispatch(KernelId::kMaskedStore, n, n * 17)
      .masked_store_span(dst_color, dst_depth, colors, depth, inside, n);
}

void plane_distance(const double* x, const double* y, const double* z,
                    std::int64_t n, double ox, double oy, double oz,
                    double nx, double ny, double nz, double* out) {
  dispatch(KernelId::kPlaneDistance, n, n * 32)
      .plane_distance(x, y, z, n, ox, oy, oz, nx, ny, nz, out);
}

void magnitude3(const double* u, std::int64_t su, const double* v,
                std::int64_t sv, const double* w, std::int64_t sw,
                std::int64_t n, double* dst) {
  dispatch(KernelId::kMagnitude3, n, n * 32)
      .magnitude3(u, su, v, sv, w, sw, n, dst);
}

void oscillator_accumulate(double* dst, std::int64_t n, double ox, double sx,
                           std::int64_t i0, double dyy, double dzz, double cx,
                           double denom, double tf) {
  dispatch(KernelId::kOscillator, n, n * 16)
      .oscillator_accumulate(dst, n, ox, sx, i0, dyy, dzz, cx, denom, tf);
}

void quantize_encode(const double* x, std::int64_t n, double lo,
                     double inv_step, std::uint16_t* out) {
  dispatch(KernelId::kQuantizeEncode, n, n * 10)
      .quantize_encode(x, n, lo, inv_step, out);
}

void quantize_decode(const std::uint16_t* q, std::int64_t n, double lo,
                     double step, double* out) {
  dispatch(KernelId::kQuantizeDecode, n, n * 10)
      .quantize_decode(q, n, lo, step, out);
}

void delta_encode(const double* x, const double* prev, std::int64_t n,
                  std::uint64_t* out) {
  dispatch(KernelId::kDeltaEncode, n, n * 24).delta_encode(x, prev, n, out);
}

void delta_decode(const std::uint64_t* delta, const double* prev,
                  std::int64_t n, double* out) {
  dispatch(KernelId::kDeltaDecode, n, n * 24)
      .delta_decode(delta, prev, n, out);
}

std::int64_t subsample_gather(const double* x, std::int64_t n_tuples,
                              int components, int stride, double* out) {
  const std::int64_t kept =
      stride > 0 ? (n_tuples + stride - 1) / stride : n_tuples;
  return dispatch(KernelId::kSubsampleGather, n_tuples * components,
                  (n_tuples + kept) * components * 8)
      .subsample_gather(x, n_tuples, components, stride, out);
}

void subsample_expand(const double* kept, std::int64_t n_tuples,
                      int components, int stride, double* out) {
  const std::int64_t nk =
      stride > 0 ? (n_tuples + stride - 1) / stride : n_tuples;
  dispatch(KernelId::kSubsampleExpand, n_tuples * components,
           (n_tuples + nk) * components * 8)
      .subsample_expand(kept, n_tuples, components, stride, out);
}

}  // namespace insitu::kernels
