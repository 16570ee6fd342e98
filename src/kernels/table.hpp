#pragma once

// Internal: the dispatch table. One instance per variant, defined in
// generic.cpp / batched.cpp / simd.cpp; kernels.cpp selects between
// them and layers the per-(kernel, variant) counters on top.

#include <cstdint>

#include "kernels/kernels.hpp"

namespace insitu::kernels::detail {

struct KernelTable {
  Moments (*reduce_moments)(const double*, std::int64_t,
                            const std::uint8_t*);
  void (*histogram_bin)(const double*, std::int64_t, const std::uint8_t*,
                        double, double, int, std::int64_t*);
  void (*accumulate_i64)(std::int64_t*, const std::int64_t*, std::int64_t);
  void (*fma_accumulate)(double*, const double*, const double*,
                         std::int64_t);
  void (*colormap_apply)(const double*, std::int64_t, double, double,
                         const std::uint8_t*, int, std::uint8_t*);
  void (*depth_composite)(std::uint8_t*, float*, const std::uint8_t*,
                          const float*, std::int64_t);
  void (*raster_span)(const RasterTri&, double, int, std::int64_t,
                      const float*, float*, double*, std::uint8_t*);
  std::int64_t (*masked_store_span)(std::uint8_t*, float*,
                                    const std::uint8_t*, const float*,
                                    const std::uint8_t*, std::int64_t);
  void (*plane_distance)(const double*, const double*, const double*,
                         std::int64_t, double, double, double, double,
                         double, double, double*);
  void (*magnitude3)(const double*, std::int64_t, const double*,
                     std::int64_t, const double*, std::int64_t,
                     std::int64_t, double*);
  void (*oscillator_accumulate)(double*, std::int64_t, double, double,
                                std::int64_t, double, double, double,
                                double, double);
  void (*quantize_encode)(const double*, std::int64_t, double, double,
                          std::uint16_t*);
  void (*quantize_decode)(const std::uint16_t*, std::int64_t, double, double,
                          double*);
  void (*delta_encode)(const double*, const double*, std::int64_t,
                       std::uint64_t*);
  void (*delta_decode)(const std::uint64_t*, const double*, std::int64_t,
                       double*);
  std::int64_t (*subsample_gather)(const double*, std::int64_t, int, int,
                                   double*);
  void (*subsample_expand)(const double*, std::int64_t, int, int, double*);
};

extern const KernelTable kGenericTable;
extern const KernelTable kBatchedTable;
extern const KernelTable kSimdTable;

}  // namespace insitu::kernels::detail
