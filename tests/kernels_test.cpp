// Golden tests for the kernels:: dispatch variants: every variant of
// every primitive against the generic scalar reference, across empty /
// odd-length / denormal / NaN / infinity inputs. Kernels documented
// bit-identical must match exactly; the reassociated sums of
// reduce_moments get a relative tolerance.

#include "kernels/kernels.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace insitu::kernels {
namespace {

/// Dispatches the calling thread's kernels to `v` for one test scope,
/// through a sink of its own; the enclosing variant resumes afterwards.
class ScopedVariant {
 public:
  explicit ScopedVariant(Variant v) : sink_(v), scope_(&sink_) {}

 private:
  StatsSink sink_;
  ScopedStatsSink scope_;
};

/// Byte equality that accepts empty ranges: an empty vector's data() may
/// be null, which memcmp forbids even for zero bytes.
bool same_bytes(const void* a, const void* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n) == 0;
}

const Variant kAllVariants[] = {Variant::kGeneric, Variant::kBatched,
                                Variant::kSimd};

/// The shapes the per-kernel sweeps run over: empty, single, vector
/// width, odd tails, and a chunk-sized range.
const std::int64_t kSizes[] = {0, 1, 3, 4, 7, 13, 64, 1000, 8192 + 5};

std::vector<double> make_values(std::int64_t n, std::uint32_t seed,
                                bool with_specials) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1000.0, 1000.0);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = uni(rng);
  if (with_specials && n >= 8) {
    v[0] = std::numeric_limits<double>::quiet_NaN();
    v[1] = std::numeric_limits<double>::infinity();
    v[2] = -std::numeric_limits<double>::infinity();
    v[3] = std::numeric_limits<double>::denorm_min();
    v[4] = -std::numeric_limits<double>::denorm_min();
    v[5] = 0.0;
    v[6] = -0.0;
    v[7] = std::numeric_limits<double>::max();
  }
  return v;
}

std::vector<std::uint8_t> make_skip(std::int64_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::uint8_t> s(static_cast<std::size_t>(n));
  for (auto& x : s) x = static_cast<std::uint8_t>(rng() % 3 == 0);
  return s;
}

TEST(KernelsDispatch, VariantNamesRoundTrip) {
  for (const Variant v : kAllVariants) {
    EXPECT_EQ(parse_variant(variant_name(v)), v);
  }
  EXPECT_EQ(parse_variant("avx1024"), std::nullopt);
  EXPECT_EQ(parse_variant("scalar"), std::nullopt);
  EXPECT_EQ(parse_variant(""), std::nullopt);
  EXPECT_EQ(parse_variant("SIMD"), std::nullopt);
}

const KernelStats& accumulate_stats(const StatsSnapshot& snap, Variant v) {
  return snap.s[static_cast<int>(KernelId::kAccumulateI64)]
               [static_cast<int>(v)];
}

TEST(KernelsDispatch, StatsCountCallsElementsBytes) {
  ScopedVariant scope(Variant::kSimd);
  const Variant v = active_variant();  // kBatched on cores without AVX2
  std::vector<std::int64_t> dst(100, 0), src(100, 1);
  const StatsSnapshot before = stats_snapshot();
  accumulate_i64(dst.data(), src.data(), 100);
  const StatsSnapshot after = stats_snapshot();
  const KernelStats& d0 = accumulate_stats(before, v);
  const KernelStats& d1 = accumulate_stats(after, v);
  EXPECT_EQ(d1.calls - d0.calls, 1u);
  EXPECT_EQ(d1.elements - d0.elements, 100u);
  EXPECT_EQ(d1.bytes - d0.bytes, 2400u);
}

// Two waves of 8 threads: the second wave leases the blocks the first
// returned on exit. Per-thread blocks must neither lose nor double count
// a call, and a reused block keeps counting from where it was. Each
// thread dispatches through a scoped sink of its own variant.
TEST(KernelsDispatch, StatsExactUnderConcurrencyAndBlockReuse) {
  const Variant v = StatsSink(Variant::kSimd).variant();
  constexpr int kThreads = 8;
  constexpr int kCalls = 20000;
  constexpr std::int64_t kLen = 3;
  const StatsSnapshot before = stats_snapshot();
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        ScopedVariant scope(Variant::kSimd);
        std::vector<std::int64_t> dst(kLen, 0);
        const std::vector<std::int64_t> src(kLen, 1);
        for (int i = 0; i < kCalls; ++i) {
          accumulate_i64(dst.data(), src.data(), kLen);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const StatsSnapshot after = stats_snapshot();
  const KernelStats& d0 = accumulate_stats(before, v);
  const KernelStats& d1 = accumulate_stats(after, v);
  const std::uint64_t calls = 2ull * kThreads * kCalls;
  EXPECT_EQ(d1.calls - d0.calls, calls);
  EXPECT_EQ(d1.elements - d0.elements, calls * kLen);
  EXPECT_EQ(d1.bytes - d0.bytes, calls * kLen * 24);
}

// A nested scope takes only the calls made while it is innermost and
// dispatches them to its own variant; the outer sink gets the calls
// before and after it, at the outer variant. A null sink counts nowhere
// and dispatches the default variant.
TEST(KernelsDispatch, NestedSinksSplitTheCalls) {
  std::vector<std::int64_t> dst(5, 0);
  const std::vector<std::int64_t> src(5, 1);
  const auto adds = [&](int n) {
    for (int i = 0; i < n; ++i) accumulate_i64(dst.data(), src.data(), 5);
  };
  StatsSink outer(Variant::kGeneric);
  StatsSink inner(Variant::kBatched);
  EXPECT_EQ(current_stats_sink(), nullptr);
  EXPECT_EQ(active_variant(), default_variant());
  {
    ScopedStatsSink charge_outer(&outer);
    EXPECT_EQ(active_variant(), Variant::kGeneric);
    adds(3);
    {
      ScopedStatsSink charge_inner(&inner);
      EXPECT_EQ(current_stats_sink(), &inner);
      EXPECT_EQ(active_variant(), Variant::kBatched);
      adds(5);
      {
        ScopedStatsSink charge_none(nullptr);
        EXPECT_EQ(active_variant(), default_variant());
        adds(100);
      }
      EXPECT_EQ(active_variant(), Variant::kBatched);
      adds(2);
    }
    EXPECT_EQ(current_stats_sink(), &outer);
    EXPECT_EQ(active_variant(), Variant::kGeneric);
    adds(4);
  }
  EXPECT_EQ(current_stats_sink(), nullptr);
  EXPECT_EQ(active_variant(), default_variant());
  adds(9);
  // Each sink saw only its own variant's calls.
  for (const Variant v : kAllVariants) {
    EXPECT_EQ(accumulate_stats(outer.snapshot(), v).calls,
              v == Variant::kGeneric ? 7u : 0u)
        << variant_name(v);
    EXPECT_EQ(accumulate_stats(inner.snapshot(), v).calls,
              v == Variant::kBatched ? 7u : 0u)
        << variant_name(v);
  }
  EXPECT_EQ(accumulate_stats(inner.snapshot(), Variant::kBatched).elements,
            35u);
}

TEST(KernelsGolden, ReduceMoments) {
  for (const std::int64_t n : kSizes) {
    for (const bool with_skip : {false, true}) {
      const std::vector<double> x = make_values(n, 11, /*specials=*/false);
      const std::vector<std::uint8_t> skip = make_skip(n, 12);
      const std::uint8_t* sp = with_skip ? skip.data() : nullptr;
      ScopedVariant ref_scope(Variant::kGeneric);
      const Moments ref = reduce_moments(x.data(), n, sp);
      for (const Variant v : kAllVariants) {
        ScopedVariant scope(v);
        const Moments got = reduce_moments(x.data(), n, sp);
        EXPECT_EQ(got.count, ref.count) << variant_name(v) << " n=" << n;
        EXPECT_EQ(got.min, ref.min) << variant_name(v) << " n=" << n;
        EXPECT_EQ(got.max, ref.max) << variant_name(v) << " n=" << n;
        EXPECT_NEAR(got.sum, ref.sum, std::abs(ref.sum) * 1e-12 + 1e-12);
        EXPECT_NEAR(got.sum_sq, ref.sum_sq,
                    std::abs(ref.sum_sq) * 1e-12 + 1e-12);
      }
    }
  }
}

TEST(KernelsGolden, ReduceMomentsIgnoresNaN) {
  // The select form drops NaN elements from min/max in every variant.
  std::vector<double> x = make_values(64, 13, /*specials=*/true);
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    const Moments got = reduce_moments(x.data(), 64, nullptr);
    EXPECT_EQ(got.max, std::numeric_limits<double>::infinity())
        << variant_name(v);
    EXPECT_EQ(got.min, -std::numeric_limits<double>::infinity())
        << variant_name(v);
    EXPECT_EQ(got.count, 64);
  }
}

TEST(KernelsGolden, HistogramBinBitIdentical) {
  for (const std::int64_t n : kSizes) {
    for (const bool with_skip : {false, true}) {
      const std::vector<double> x = make_values(n, 21, /*specials=*/true);
      const std::vector<std::uint8_t> skip = make_skip(n, 22);
      const std::uint8_t* sp = with_skip ? skip.data() : nullptr;
      const int bins = 17;
      std::vector<std::int64_t> ref(bins, 0);
      {
        ScopedVariant scope(Variant::kGeneric);
        histogram_bin(x.data(), n, sp, -1000.0, 2000.0, bins, ref.data());
      }
      for (const Variant v : kAllVariants) {
        ScopedVariant scope(v);
        std::vector<std::int64_t> got(bins, 0);
        histogram_bin(x.data(), n, sp, -1000.0, 2000.0, bins, got.data());
        EXPECT_EQ(got, ref) << variant_name(v) << " n=" << n
                            << " skip=" << with_skip;
      }
    }
  }
}

TEST(KernelsGolden, HistogramBinDefinedForNaNAndOutOfRange) {
  const double x[] = {std::numeric_limits<double>::quiet_NaN(),
                      -1e300,
                      1e300,
                      std::numeric_limits<double>::infinity(),
                      -std::numeric_limits<double>::infinity(),
                      0.5};
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    std::vector<std::int64_t> bins(4, 0);
    histogram_bin(x, 6, nullptr, 0.0, 1.0, 4, bins.data());
    EXPECT_EQ(bins[0], 3) << variant_name(v);  // NaN, -1e300, -inf
    EXPECT_EQ(bins[3], 2) << variant_name(v);  // 1e300, +inf clamp high
    EXPECT_EQ(bins[2], 1) << variant_name(v);  // 0.5 * 4 -> bin 2
  }
}

TEST(KernelsGolden, AccumulateI64BitIdentical) {
  for (const std::int64_t n : kSizes) {
    std::vector<std::int64_t> src(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i) src[static_cast<std::size_t>(i)] = i * 7 - 3;
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::int64_t> dst(static_cast<std::size_t>(n), 5);
      accumulate_i64(dst.data(), src.data(), n);
      for (std::int64_t i = 0; i < n; ++i) {
        ASSERT_EQ(dst[static_cast<std::size_t>(i)], 5 + i * 7 - 3);
      }
    }
  }
}

TEST(KernelsGolden, ElementwiseBitIdentical) {
  // fma_accumulate / plane_distance / magnitude3 are per-element
  // independent with a fixed operation order: every variant
  // must produce the same bits, specials included.
  for (const std::int64_t n : kSizes) {
    const std::vector<double> a = make_values(n, 31, /*specials=*/true);
    const std::vector<double> b = make_values(n, 32, /*specials=*/true);
    const std::vector<double> c = make_values(n, 33, /*specials=*/false);

    std::vector<double> ref_fma(static_cast<std::size_t>(n), 1.0);
    std::vector<double> ref_plane(static_cast<std::size_t>(n), 0.0);
    std::vector<double> ref_mag(static_cast<std::size_t>(n), 0.0);
    {
      ScopedVariant scope(Variant::kGeneric);
      fma_accumulate(ref_fma.data(), a.data(), b.data(), n);
      plane_distance(a.data(), b.data(), c.data(), n, 0.5, -0.5, 2.0, 0.1,
                     0.2, 0.3, ref_plane.data());
      magnitude3(a.data(), 1, b.data(), 1, c.data(), 1, n, ref_mag.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<double> fma(static_cast<std::size_t>(n), 1.0);
      std::vector<double> pl(static_cast<std::size_t>(n), 0.0);
      std::vector<double> mg(static_cast<std::size_t>(n), 0.0);
      fma_accumulate(fma.data(), a.data(), b.data(), n);
      plane_distance(a.data(), b.data(), c.data(), n, 0.5, -0.5, 2.0, 0.1,
                     0.2, 0.3, pl.data());
      magnitude3(a.data(), 1, b.data(), 1, c.data(), 1, n, mg.data());
      EXPECT_TRUE(same_bytes(fma.data(), ref_fma.data(),
                               static_cast<std::size_t>(n) * 8))
          << "fma " << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(pl.data(), ref_plane.data(),
                               static_cast<std::size_t>(n) * 8))
          << "plane " << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(mg.data(), ref_mag.data(),
                               static_cast<std::size_t>(n) * 8))
          << "magnitude " << variant_name(v) << " n=" << n;
    }
  }
}

TEST(KernelsGolden, Magnitude3Strided) {
  // AoS layout: component base pointers with stride 3.
  const std::int64_t n = 101;
  std::vector<double> aos(static_cast<std::size_t>(3 * n));
  for (auto& x : aos) x = static_cast<double>(&x - aos.data()) * 0.25 - 30.0;
  std::vector<double> ref(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double u = aos[static_cast<std::size_t>(3 * i)];
    const double v = aos[static_cast<std::size_t>(3 * i + 1)];
    const double w = aos[static_cast<std::size_t>(3 * i + 2)];
    ref[static_cast<std::size_t>(i)] = std::sqrt(u * u + v * v + w * w);
  }
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    std::vector<double> got(static_cast<std::size_t>(n));
    magnitude3(aos.data(), 3, aos.data() + 1, 3, aos.data() + 2, 3, n,
               got.data());
    EXPECT_TRUE(same_bytes(got.data(), ref.data(),
                             static_cast<std::size_t>(n) * 8))
        << variant_name(v);
  }
}

TEST(KernelsGolden, ColormapBitIdentical) {
  const std::uint8_t controls[] = {0, 0, 0, 255, 200, 30, 0, 255,
                                   255, 210, 0, 255, 255, 255, 255, 255};
  for (const std::int64_t n : kSizes) {
    const std::vector<double> s = make_values(n, 51, /*specials=*/true);
    std::vector<std::uint8_t> ref(static_cast<std::size_t>(4 * n), 9);
    {
      ScopedVariant scope(Variant::kGeneric);
      colormap_apply(s.data(), n, -500.0, 500.0, controls, 4, ref.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::uint8_t> got(static_cast<std::size_t>(4 * n), 9);
      colormap_apply(s.data(), n, -500.0, 500.0, controls, 4, got.data());
      EXPECT_EQ(got, ref) << variant_name(v) << " n=" << n;
      // Degenerate range: every scalar maps to the midpoint.
      colormap_apply(s.data(), n, 3.0, 3.0, controls, 4, got.data());
      std::vector<std::uint8_t> mid(static_cast<std::size_t>(4 * n), 9);
      {
        ScopedVariant ref_scope(Variant::kGeneric);
        colormap_apply(s.data(), n, 3.0, 3.0, controls, 4, mid.data());
      }
      EXPECT_EQ(got, mid) << variant_name(v) << " degenerate n=" << n;
    }
  }
}

TEST(KernelsGolden, DepthCompositeBitIdentical) {
  for (const std::int64_t n : kSizes) {
    std::mt19937 rng(61);
    std::vector<float> src_d(static_cast<std::size_t>(n)),
        dst_d0(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> src_c(static_cast<std::size_t>(4 * n)),
        dst_c0(static_cast<std::size_t>(4 * n));
    for (auto& d : src_d) d = static_cast<float>(rng() % 100) * 0.1f;
    for (auto& d : dst_d0) d = static_cast<float>(rng() % 100) * 0.1f;
    for (auto& c : src_c) c = static_cast<std::uint8_t>(rng());
    for (auto& c : dst_c0) c = static_cast<std::uint8_t>(rng());
    if (n >= 4) {
      src_d[0] = std::numeric_limits<float>::quiet_NaN();  // never wins
      src_d[1] = std::numeric_limits<float>::infinity();
      dst_d0[2] = std::numeric_limits<float>::quiet_NaN();  // always loses
      dst_d0[3] = std::numeric_limits<float>::infinity();
    }
    std::vector<float> ref_d = dst_d0;
    std::vector<std::uint8_t> ref_c = dst_c0;
    {
      ScopedVariant scope(Variant::kGeneric);
      depth_composite(ref_c.data(), ref_d.data(), src_c.data(),
                      src_d.data(), n);
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<float> d = dst_d0;
      std::vector<std::uint8_t> c = dst_c0;
      depth_composite(c.data(), d.data(), src_c.data(), src_d.data(), n);
      EXPECT_EQ(c, ref_c) << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(d.data(), ref_d.data(),
                               static_cast<std::size_t>(n) * 4))
          << variant_name(v) << " n=" << n;
    }
  }
}

TEST(KernelsGolden, RasterSpanAndMaskedStoreBitIdentical) {
  RasterTri tri{};
  tri.ax = 3.0; tri.ay = 2.0; tri.adepth = 0.5; tri.ascalar = 1.0;
  tri.bx = 60.0; tri.by = 10.0; tri.bdepth = 0.9; tri.bscalar = 2.0;
  tri.cx = 20.0; tri.cy = 55.0; tri.cdepth = 0.2; tri.cscalar = 3.0;
  const double area = (tri.bx - tri.ax) * (tri.cy - tri.ay) -
                      (tri.cx - tri.ax) * (tri.by - tri.ay);
  tri.inv_area = 1.0 / area;
  for (const std::int64_t n : kSizes) {
    std::mt19937 rng(71);
    std::vector<float> dst_d(static_cast<std::size_t>(n));
    for (auto& d : dst_d) d = static_cast<float>(rng() % 10) * 0.1f;
    std::vector<float> ref_depth(static_cast<std::size_t>(n));
    std::vector<double> ref_scalar(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> ref_inside(static_cast<std::size_t>(n));
    {
      ScopedVariant scope(Variant::kGeneric);
      raster_span(tri, 20.5, 0, n, dst_d.data(), ref_depth.data(),
                  ref_scalar.data(), ref_inside.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<float> depth(static_cast<std::size_t>(n));
      std::vector<double> scalar(static_cast<std::size_t>(n));
      std::vector<std::uint8_t> inside(static_cast<std::size_t>(n));
      raster_span(tri, 20.5, 0, n, dst_d.data(), depth.data(),
                  scalar.data(), inside.data());
      EXPECT_EQ(inside, ref_inside) << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(depth.data(), ref_depth.data(),
                               static_cast<std::size_t>(n) * 4))
          << variant_name(v) << " n=" << n;
      EXPECT_TRUE(same_bytes(scalar.data(), ref_scalar.data(),
                               static_cast<std::size_t>(n) * 8))
          << variant_name(v) << " n=" << n;
      if (n > 16) {
        // Some pixels of this span really are inside.
        std::int64_t covered = 0;
        for (const std::uint8_t f : inside) covered += f;
        EXPECT_GT(covered, 0) << variant_name(v);
      }

      // Masked store round trip.
      std::vector<std::uint8_t> colors(static_cast<std::size_t>(4 * n));
      for (auto& c : colors) c = static_cast<std::uint8_t>(rng());
      std::vector<float> img_d = dst_d;
      std::vector<std::uint8_t> img_c(static_cast<std::size_t>(4 * n), 7);
      const std::int64_t stored = masked_store_span(
          img_c.data(), img_d.data(), colors.data(), depth.data(),
          inside.data(), n);
      std::int64_t expected_stored = 0;
      for (std::int64_t i = 0; i < n; ++i) {
        const auto ui = static_cast<std::size_t>(i);
        if (inside[ui] != 0) {
          ++expected_stored;
          EXPECT_EQ(img_d[ui], depth[ui]);
          EXPECT_TRUE(same_bytes(&img_c[4 * ui], &colors[4 * ui], 4));
        } else {
          EXPECT_EQ(img_d[ui], dst_d[ui]);
          EXPECT_EQ(img_c[4 * ui], 7);
        }
      }
      EXPECT_EQ(stored, expected_stored) << variant_name(v);
    }
  }
}

TEST(KernelsGolden, OscillatorAccumulateBitIdentical) {
  for (const std::int64_t n : kSizes) {
    std::vector<double> ref(static_cast<std::size_t>(n), 0.25);
    {
      ScopedVariant scope(Variant::kGeneric);
      oscillator_accumulate(ref.data(), n, 0.0, 1.0, 17, 4.0, 9.0, 8.0,
                            18.0, 0.7);
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<double> got(static_cast<std::size_t>(n), 0.25);
      oscillator_accumulate(got.data(), n, 0.0, 1.0, 17, 4.0, 9.0, 8.0,
                            18.0, 0.7);
      EXPECT_TRUE(same_bytes(got.data(), ref.data(),
                               static_cast<std::size_t>(n) * 8))
          << variant_name(v) << " n=" << n;
    }
  }
}

TEST(KernelsReduction, QuantizeBitIdenticalAndErrorBounded) {
  for (const std::int64_t n : kSizes) {
    const std::vector<double> x = make_values(n, 61, /*specials=*/false);
    // Chunk-local affine coding: one (lo, step) per call here, as the
    // pipeline does per 256-value chunk.
    double lo = 0.0, hi = 0.0;
    for (const double v : x) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    const double step = (hi - lo) / 65535.0;
    const double inv_step = step > 0.0 ? 1.0 / step : 0.0;
    std::vector<std::uint16_t> ref_q(static_cast<std::size_t>(n) + 1, 0xabcd);
    std::vector<double> ref_d(static_cast<std::size_t>(n) + 1, -7.0);
    {
      ScopedVariant scope(Variant::kGeneric);
      quantize_encode(x.data(), n, lo, inv_step, ref_q.data());
      quantize_decode(ref_q.data(), n, lo, step, ref_d.data());
    }
    // Documented error bound: step/2 for finite in-range values (a hair
    // of slack for the inv_step rounding).
    for (std::int64_t i = 0; i < n; ++i) {
      EXPECT_LE(std::abs(ref_d[static_cast<std::size_t>(i)] -
                         x[static_cast<std::size_t>(i)]),
                0.5000001 * step + 1e-12)
          << "n=" << n << " i=" << i;
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::uint16_t> q(static_cast<std::size_t>(n) + 1, 0xabcd);
      std::vector<double> d(static_cast<std::size_t>(n) + 1, -7.0);
      quantize_encode(x.data(), n, lo, inv_step, q.data());
      quantize_decode(q.data(), n, lo, step, d.data());
      EXPECT_EQ(ref_q, q) << "quantize_encode " << variant_name(v);
      EXPECT_TRUE(same_bytes(d.data(), ref_d.data(), d.size() * 8))
          << "quantize_decode " << variant_name(v);
    }
  }
}

TEST(KernelsReduction, QuantizeSpecialsAndDegenerateRange) {
  // NaN and below-range values take code 0; above-range saturates.
  const double lo = -1.0, step = 2.0 / 65535.0, inv_step = 1.0 / step;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double x[] = {nan, -inf, inf, -5.0, 5.0, lo, 1.0};
  std::uint16_t q[7];
  for (const Variant v : kAllVariants) {
    ScopedVariant scope(v);
    quantize_encode(x, 7, lo, inv_step, q);
    EXPECT_EQ(0, q[0]) << variant_name(v);
    EXPECT_EQ(0, q[1]) << variant_name(v);
    EXPECT_EQ(65535, q[2]) << variant_name(v);
    EXPECT_EQ(0, q[3]) << variant_name(v);
    EXPECT_EQ(65535, q[4]) << variant_name(v);
    EXPECT_EQ(0, q[5]) << variant_name(v);
    EXPECT_EQ(65535, q[6]) << variant_name(v);
    // Degenerate chunk (step == 0): everything codes to 0 and decodes
    // to lo exactly.
    quantize_encode(x, 7, 4.0, 0.0, q);
    double d[7];
    quantize_decode(q, 7, 4.0, 0.0, d);
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(0, q[i]) << variant_name(v);
      EXPECT_EQ(4.0, d[i]) << variant_name(v);
    }
  }
}

TEST(KernelsReduction, DeltaRoundTripIsBitLossless) {
  for (const std::int64_t n : kSizes) {
    const std::vector<double> x = make_values(n, 62, /*specials=*/true);
    std::vector<double> prev = make_values(n, 63, /*specials=*/true);
    std::vector<std::uint64_t> ref_w(static_cast<std::size_t>(n) + 1,
                                     0x1234u);
    {
      ScopedVariant scope(Variant::kGeneric);
      delta_encode(x.data(), prev.data(), n, ref_w.data());
    }
    for (const Variant v : kAllVariants) {
      ScopedVariant scope(v);
      std::vector<std::uint64_t> w(static_cast<std::size_t>(n) + 1, 0x1234u);
      std::vector<double> back(static_cast<std::size_t>(n) + 1, -7.0);
      delta_encode(x.data(), prev.data(), n, w.data());
      EXPECT_EQ(ref_w, w) << "delta_encode " << variant_name(v);
      delta_decode(w.data(), prev.data(), n, back.data());
      // Bit identity, not value equality: NaN payloads, signed zeros and
      // denormals must survive.
      EXPECT_TRUE(same_bytes(back.data(), x.data(),
                               static_cast<std::size_t>(n) * 8))
          << "delta_decode " << variant_name(v);
    }
    // Unchanged values XOR to zero words — the property RLE exploits.
    std::vector<std::uint64_t> self(static_cast<std::size_t>(n), 0x5678u);
    delta_encode(x.data(), x.data(), n, self.data());
    for (const std::uint64_t w : self) EXPECT_EQ(0u, w);
  }
}

TEST(KernelsReduction, SubsampleGatherExpandBitIdentical) {
  const int kComponents[] = {1, 3};
  const int kStrides[] = {1, 2, 3, 7};
  for (const std::int64_t tuples : kSizes) {
    for (const int comps : kComponents) {
      const std::vector<double> x =
          make_values(tuples * comps, 64, /*specials=*/true);
      for (const int stride : kStrides) {
        const std::int64_t kept_tuples =
            stride > 0 ? (tuples + stride - 1) / stride : tuples;
        // Scalar reference for both directions.
        std::vector<double> ref_kept(
            static_cast<std::size_t>(kept_tuples * comps), -7.0);
        std::vector<double> ref_full(static_cast<std::size_t>(tuples * comps),
                                     -7.0);
        for (std::int64_t t = 0; t < tuples; ++t) {
          const std::int64_t k = t / stride;
          for (int c = 0; c < comps; ++c) {
            if (t % stride == 0) {
              ref_kept[static_cast<std::size_t>(k * comps + c)] =
                  x[static_cast<std::size_t>(t * comps + c)];
            }
            ref_full[static_cast<std::size_t>(t * comps + c)] =
                x[static_cast<std::size_t>((t / stride) * stride * comps + c)];
          }
        }
        for (const Variant v : kAllVariants) {
          ScopedVariant scope(v);
          std::vector<double> kept(
              static_cast<std::size_t>(kept_tuples * comps) + 1, -9.0);
          const std::int64_t got =
              subsample_gather(x.data(), tuples, comps, stride, kept.data());
          EXPECT_EQ(kept_tuples, got) << variant_name(v);
          EXPECT_TRUE(same_bytes(kept.data(), ref_kept.data(),
                                   ref_kept.size() * 8))
              << "gather " << variant_name(v) << " tuples=" << tuples
              << " comps=" << comps << " stride=" << stride;
          std::vector<double> full(
              static_cast<std::size_t>(tuples * comps) + 1, -9.0);
          subsample_expand(kept.data(), tuples, comps, stride, full.data());
          EXPECT_TRUE(same_bytes(full.data(), ref_full.data(),
                                   ref_full.size() * 8))
              << "expand " << variant_name(v) << " tuples=" << tuples
              << " comps=" << comps << " stride=" << stride;
        }
      }
    }
  }
}

}  // namespace
}  // namespace insitu::kernels
