#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>

#include "analysis/contour.hpp"
#include "comm/runtime.hpp"
#include "data/image_data.hpp"
#include "pal/rng.hpp"
#include "render/compositor.hpp"
#include "render/png.hpp"
#include "render/rasterizer.hpp"
#include "test_dir.hpp"

namespace insitu::render {
namespace {

using analysis::TriangleMesh;
using data::Vec3;

TriangleMesh unit_quad(double z, double scalar) {
  TriangleMesh mesh;
  mesh.vertices = {{-1, -1, z}, {1, -1, z}, {1, 1, z}, {-1, 1, z}};
  mesh.scalars = {scalar, scalar, scalar, scalar};
  mesh.triangles = {{0, 1, 2}, {0, 2, 3}};
  return mesh;
}

RenderConfig small_config() {
  RenderConfig cfg;
  cfg.width = 64;
  cfg.height = 64;
  data::Bounds b;
  b.expand({-1, -1, -1});
  b.expand({1, 1, 1});
  cfg.camera = default_slice_camera(b);
  cfg.colormap = ColorMap::grayscale(0.0, 1.0);
  return cfg;
}

TEST(Rasterizer, QuadCoversCenterPixels) {
  const RenderConfig cfg = small_config();
  Image img = render_mesh(unit_quad(0.0, 1.0), cfg);
  // Center must be hit and colored white (scalar 1 on grayscale).
  const Rgba center = img.pixel(32, 32);
  EXPECT_EQ(center.r, 255);
  EXPECT_EQ(center.a, 255);
  // A corner outside the quad stays background.
  EXPECT_EQ(img.pixel(0, 0).a, 0);
}

TEST(Rasterizer, DepthTestNearWins) {
  const RenderConfig cfg = small_config();
  Image img(cfg.width, cfg.height);
  img.clear(cfg.background);
  // Far dark quad first, then near bright quad: near wins.
  rasterize(unit_quad(0.5, 0.0), cfg, img);   // farther from camera at +z
  rasterize(unit_quad(0.9, 1.0), cfg, img);   // nearer (camera at z=+4R)
  EXPECT_EQ(img.pixel(32, 32).r, 255);
  // Order-independence: reversed order gives the same image.
  Image img2(cfg.width, cfg.height);
  img2.clear(cfg.background);
  rasterize(unit_quad(0.9, 1.0), cfg, img2);
  rasterize(unit_quad(0.5, 0.0), cfg, img2);
  EXPECT_EQ(img.color_hash(), img2.color_hash());
}

TEST(Rasterizer, ScalarGradientInterpolated) {
  TriangleMesh mesh;
  mesh.vertices = {{-1, -1, 0}, {1, -1, 0}, {1, 1, 0}, {-1, 1, 0}};
  mesh.scalars = {0.0, 1.0, 1.0, 0.0};  // dark left, bright right
  mesh.triangles = {{0, 1, 2}, {0, 2, 3}};
  Image img = render_mesh(mesh, small_config());
  EXPECT_LT(img.pixel(8, 32).r, img.pixel(56, 32).r);
}

TEST(Rasterizer, FragmentCountPositive) {
  const RenderConfig cfg = small_config();
  Image img(cfg.width, cfg.height);
  img.clear(cfg.background);
  const std::int64_t fragments = rasterize(unit_quad(0.0, 0.5), cfg, img);
  EXPECT_GT(fragments, 0);
}

TEST(Rasterizer, EmptyMeshRendersBackground) {
  Image img = render_mesh(TriangleMesh{}, small_config());
  for (const Rgba& p : img.pixels()) EXPECT_EQ(p.a, 0);
}

TEST(ColorMap, EndpointsAndClamping) {
  ColorMap cm = ColorMap::grayscale(0.0, 10.0);
  EXPECT_EQ(cm.map(0.0).r, 0);
  EXPECT_EQ(cm.map(10.0).r, 255);
  EXPECT_EQ(cm.map(-5.0).r, 0);    // clamped
  EXPECT_EQ(cm.map(20.0).r, 255);  // clamped
  EXPECT_EQ(cm.map(5.0).r, 128);
}

TEST(ColorMap, CoolWarmMidpointIsNeutral) {
  ColorMap cm = ColorMap::cool_warm(-1.0, 1.0);
  const Rgba mid = cm.map(0.0);
  EXPECT_NEAR(mid.r, 221, 2);
  EXPECT_NEAR(mid.g, 221, 2);
  const Rgba lo = cm.map(-1.0);
  EXPECT_GT(lo.b, lo.r);  // cool end is blue
  const Rgba hi = cm.map(1.0);
  EXPECT_GT(hi.r, hi.b);  // warm end is red
}

TEST(ColorMap, ByName) {
  EXPECT_EQ(ColorMap::by_name("heat", 0, 1).map(0.0).r, 0);
  EXPECT_EQ(ColorMap::by_name("grayscale", 0, 1).map(1.0).g, 255);
}

TEST(ColorMap, DegenerateRange) {
  ColorMap cm = ColorMap::grayscale(5.0, 5.0);
  EXPECT_EQ(cm.map(5.0).r, 128);  // midpoint fallback
}

TEST(Image, CompositeOverPrefersNearerDepth) {
  Image a(2, 1), b(2, 1);
  a.pixel(0, 0) = {10, 0, 0, 255};
  a.depth(0, 0) = 1.0f;
  b.pixel(0, 0) = {0, 20, 0, 255};
  b.depth(0, 0) = 0.5f;  // nearer
  b.pixel(1, 0) = {0, 0, 30, 255};
  b.depth(1, 0) = 2.0f;
  a.pixel(1, 0) = {40, 0, 0, 255};
  a.depth(1, 0) = 1.5f;  // nearer
  a.composite_over(b);
  EXPECT_EQ(a.pixel(0, 0).g, 20);
  EXPECT_EQ(a.pixel(1, 0).r, 40);
}

class CompositorP : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Ranks, CompositorP,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

/// Each rank renders a horizontal strip; the composite must contain every
/// strip, nearest-depth resolved, identically for both algorithms.
TEST_P(CompositorP, TreeAndBinarySwapAgree) {
  const int p = GetParam();
  std::atomic<std::uint64_t> tree_hash{0}, swap_hash{0};
  std::atomic<int> failures{0};
  auto run = [&](CompositeAlgorithm algo, std::atomic<std::uint64_t>& hash) {
    comm::Runtime::run(p, [&](comm::Communicator& comm) {
      Image local(32, 32);
      local.clear(Rgba{0, 0, 0, 0});
      // Rank r owns rows [r*32/p, (r+1)*32/p) at depth 1, and additionally
      // covers row 0 at depth (rank+2) so depth resolution matters.
      const int y0 = comm.rank() * 32 / p;
      const int y1 = (comm.rank() + 1) * 32 / p;
      for (int y = y0; y < y1; ++y) {
        for (int x = 0; x < 32; ++x) {
          local.pixel(x, y) =
              Rgba{static_cast<std::uint8_t>(50 + comm.rank()), 0, 0, 255};
          local.depth(x, y) = 1.0f;
        }
      }
      for (int x = 0; x < 32; ++x) {
        local.pixel(x, 0) =
            Rgba{0, static_cast<std::uint8_t>(100 + comm.rank()), 0, 255};
        local.depth(x, 0) = static_cast<float>(comm.rank() + 2);
      }
      const bool root = composite(comm, local, algo);
      const Image& result = local;
      if (comm.rank() == 0) {
        if (!root) {
          ++failures;
          return;
        }
        // Row 0: every rank painted it green at depth rank+2 (rank 0's
        // overlay overwrote its own red strip there), so the nearest is
        // rank 0's green at depth 2.
        if (result.pixel(5, 0).g != 100) ++failures;
        // Every strip present.
        for (int r = 0; r < p; ++r) {
          const int y = (r * 32 / p + (r + 1) * 32 / p) / 2;
          if (y == 0) continue;
          if (result.pixel(16, y).r != 50 + r) ++failures;
        }
        hash = result.color_hash();
      } else if (root) {
        ++failures;
      }
    });
  };
  run(CompositeAlgorithm::kTree, tree_hash);
  run(CompositeAlgorithm::kBinarySwap, swap_hash);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tree_hash.load(), swap_hash.load());
}

TEST(Compositor, VirtualTimeGrowsWithImageSize) {
  auto cost = [](int dim) {
    comm::Runtime::Options opts;
    opts.machine = comm::cori_haswell();
    auto report = comm::Runtime::run(8, opts, [&](comm::Communicator& comm) {
      Image local(dim, dim);
      (void)composite(comm, local, CompositeAlgorithm::kTree);
    });
    return report.max_virtual_seconds();
  };
  EXPECT_GT(cost(256), cost(32));
}

/// Rank `rank`'s frame for the in-place tests, written into `frame`'s
/// existing storage as a backend re-renders its persistent frame. About a
/// quarter of the pixels stay background (infinite depth, same color on
/// every rank); the rest get a rank-specific color at a depth no other
/// rank shares for that pixel, so the composite does not depend on the
/// order partners merge in.
void fill_rank_frame(Image& frame, int rank, int ranks) {
  frame.clear(Rgba{10, 20, 30, 0});
  pal::Rng rng = pal::Rng(2024).split(static_cast<std::uint64_t>(rank));
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      const std::uint64_t r = rng.next_u64();
      if ((r & 3) == 0) continue;
      frame.pixel(x, y) = Rgba{static_cast<std::uint8_t>(r >> 8),
                               static_cast<std::uint8_t>(r >> 16),
                               static_cast<std::uint8_t>(40 + rank), 255};
      frame.depth(x, y) =
          static_cast<float>(((r >> 24) % 16) * ranks + rank) + 0.5f;
    }
  }
}

/// Serial reference: rank 0's frame with every other rank's merged over it
/// in rank order.
Image serial_composite(int ranks, int width, int height) {
  Image reference(width, height);
  fill_rank_frame(reference, 0, ranks);
  Image other(width, height);
  for (int r = 1; r < ranks; ++r) {
    fill_rank_frame(other, r, ranks);
    reference.composite_over(other);
  }
  return reference;
}

struct InPlaceResult {
  std::vector<Rgba> pixels[2];  ///< rank 0's frame after each call
  std::vector<float> depths[2];
  int roots = 0;                ///< ranks whose call returned true
  bool storage_kept = true;     ///< every frame kept its buffers
};

/// Two composites on the same persistent frames, re-rendered in between
/// as a backend does from one step to the next.
InPlaceResult run_in_place(int ranks, comm::SchedBackend backend,
                           CompositeAlgorithm algorithm) {
  constexpr int kWidth = 40;
  constexpr int kHeight = 24;
  InPlaceResult out;
  std::atomic<int> roots{0};
  std::atomic<bool> kept{true};
  comm::Runtime::Options options;
  options.sched.backend = backend;
  options.sched.workers = 2;
  const comm::RunReport report =
      comm::Runtime::run(ranks, options, [&](comm::Communicator& comm) {
        Image frame(kWidth, kHeight);
        const Rgba* pixels = frame.pixels().data();
        const float* depths = frame.depths().data();
        for (int call = 0; call < 2; ++call) {
          fill_rank_frame(frame, comm.rank(), ranks);
          const bool root = composite(comm, frame, algorithm);
          if (root) {
            ++roots;
            if (comm.rank() == 0) {
              out.pixels[call] = frame.pixels();
              out.depths[call] = frame.depths();
            }
          }
        }
        if (frame.pixels().data() != pixels ||
            frame.depths().data() != depths) {
          kept = false;
        }
      });
  EXPECT_FALSE(report.failed) << report.failure_message;
  out.roots = roots.load();
  out.storage_kept = kept.load();
  return out;
}

class CompositeInPlace
    : public ::testing::TestWithParam<std::tuple<int, comm::SchedBackend>> {};
INSTANTIATE_TEST_SUITE_P(
    RanksSched, CompositeInPlace,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 8),
                       ::testing::Values(comm::SchedBackend::kThreads,
                                         comm::SchedBackend::kMn)),
    [](const auto& info) {
      return "P" + std::to_string(std::get<0>(info.param)) + "_" +
             comm::to_string(std::get<1>(info.param));
    });

/// Rank 0's frame equals the serial rank-order reference pixel for pixel
/// and depth for depth, for both algorithms and on a repeated call; tree
/// and binary swap agree; frames are merged into, never reallocated.
TEST_P(CompositeInPlace, MatchesSerialReferenceEveryCall) {
  const auto [ranks, backend] = GetParam();
  const Image reference = serial_composite(ranks, 40, 24);
  const InPlaceResult tree =
      run_in_place(ranks, backend, CompositeAlgorithm::kTree);
  const InPlaceResult swap =
      run_in_place(ranks, backend, CompositeAlgorithm::kBinarySwap);
  for (const InPlaceResult* result : {&tree, &swap}) {
    EXPECT_EQ(result->roots, 2);  // rank 0, once per call
    EXPECT_TRUE(result->storage_kept);
    for (int call = 0; call < 2; ++call) {
      EXPECT_TRUE(result->pixels[call] == reference.pixels()) << call;
      EXPECT_TRUE(result->depths[call] == reference.depths()) << call;
    }
  }
  EXPECT_TRUE(tree.pixels[0] == swap.pixels[0]);
  EXPECT_TRUE(tree.depths[0] == swap.depths[0]);
}

TEST(Compositor, ImageCloneIsADeepCopy) {
  Image a(3, 2);
  a.pixel(1, 1) = Rgba{1, 2, 3, 4};
  a.depth(1, 1) = 0.5f;
  Image b = a.clone();
  EXPECT_NE(b.pixels().data(), a.pixels().data());
  EXPECT_EQ(b.width(), 3);
  EXPECT_EQ(b.height(), 2);
  EXPECT_EQ(b.pixel(1, 1), (Rgba{1, 2, 3, 4}));
  EXPECT_EQ(b.depth(1, 1), 0.5f);
  b.pixel(1, 1) = Rgba{};
  EXPECT_EQ(a.pixel(1, 1), (Rgba{1, 2, 3, 4}));
  static_assert(!std::is_copy_constructible_v<Image>);
  static_assert(!std::is_copy_assignable_v<Image>);
}

TEST(Png, Crc32KnownVector) {
  const char* s = "123456789";
  EXPECT_EQ(png::crc32(std::as_bytes(std::span(s, 9))), 0xCBF43926u);
}

TEST(Png, Adler32KnownVector) {
  // adler32("Wikipedia") = 0x11E60398.
  const char* s = "Wikipedia";
  EXPECT_EQ(png::adler32(std::as_bytes(std::span(s, 9))), 0x11E60398u);
}

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Png, DeflateInflateRoundTripText) {
  const std::string text =
      "in situ in situ in situ processing at extreme scale, "
      "in situ processing at extreme scale, repeated text compresses.";
  const auto raw = to_bytes(text);
  const auto compressed = png::deflate_fixed(raw);
  EXPECT_LT(compressed.size(), raw.size());  // repetition must compress
  auto inflated = png::inflate(compressed);
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(*inflated, raw);
}

TEST(Png, DeflateInflateRoundTripRandom) {
  pal::Rng rng(7);
  for (const std::size_t n : {0u, 1u, 2u, 100u, 5000u, 70000u}) {
    std::vector<std::byte> raw(n);
    for (auto& b : raw) {
      b = static_cast<std::byte>(rng.next_below(7));  // low-entropy bytes
    }
    auto inflated = png::inflate(png::deflate_fixed(raw));
    ASSERT_TRUE(inflated.ok()) << "n=" << n;
    EXPECT_EQ(*inflated, raw) << "n=" << n;
  }
}

TEST(Png, StoredRoundTrip) {
  pal::Rng rng(9);
  std::vector<std::byte> raw(70000);  // forces multiple stored blocks
  for (auto& b : raw) b = static_cast<std::byte>(rng.next_below(256));
  auto inflated = png::inflate(png::deflate_stored(raw));
  ASSERT_TRUE(inflated.ok());
  EXPECT_EQ(*inflated, raw);
}

TEST(Png, ZlibRoundTrip) {
  const auto raw = to_bytes("zlib wrapper round trip test data data data");
  for (bool compress : {true, false}) {
    auto back = png::zlib_decompress(png::zlib_compress(raw, compress));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, raw);
  }
}

TEST(Png, ZlibDetectsCorruption) {
  auto stream = png::zlib_compress(to_bytes("payload payload payload"));
  stream[stream.size() - 1] ^= std::byte{0xFF};  // corrupt adler
  EXPECT_FALSE(png::zlib_decompress(stream).ok());
}

TEST(Png, EncodeProducesValidStructure) {
  Image img(16, 8);
  img.clear(Rgba{10, 20, 30, 255});
  const auto data = png::encode(img);
  ASSERT_GT(data.size(), 8u);
  // PNG signature.
  EXPECT_EQ(data[0], std::byte{0x89});
  EXPECT_EQ(data[1], std::byte{'P'});
  // IHDR follows immediately with width 16 big-endian.
  EXPECT_EQ(static_cast<int>(data[16 + 3]), 16);  // width LSB at offset 19
  // Ends with IEND.
  const std::string tail(reinterpret_cast<const char*>(data.data()) +
                             data.size() - 8,
                         4);
  EXPECT_EQ(tail, "IEND");
}

TEST(Png, CompressedSmallerThanStoredForFlatImage) {
  Image img(128, 128);
  img.clear(Rgba{50, 60, 70, 255});
  const auto compressed = png::encode(img, {.compress = true});
  const auto stored = png::encode(img, {.compress = false});
  EXPECT_LT(compressed.size(), stored.size() / 4);
}

TEST(Png, IdatPayloadRoundTripsToRawScanlines) {
  Image img(3, 2);
  img.pixel(0, 0) = {1, 2, 3, 4};
  img.pixel(2, 1) = {9, 8, 7, 6};
  const auto data = png::encode(img, {.compress = true, .filter = false});
  // Locate IDAT chunk.
  std::size_t pos = 8;
  std::vector<std::byte> idat;
  while (pos + 8 <= data.size()) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len = (len << 8) | static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)]);
    }
    const std::string type(reinterpret_cast<const char*>(data.data()) + pos + 4, 4);
    if (type == "IDAT") {
      idat.assign(data.begin() + static_cast<std::ptrdiff_t>(pos + 8),
                  data.begin() + static_cast<std::ptrdiff_t>(pos + 8 + len));
      break;
    }
    pos += 12 + len;
  }
  ASSERT_FALSE(idat.empty());
  auto raw = png::zlib_decompress(idat);
  ASSERT_TRUE(raw.ok());
  // 2 rows x (1 filter byte + 3*4 pixel bytes).
  ASSERT_EQ(raw->size(), 2u * 13u);
  EXPECT_EQ((*raw)[0], std::byte{0});              // filter none
  EXPECT_EQ((*raw)[1], std::byte{1});              // r of pixel (0,0)
  EXPECT_EQ((*raw)[13 + 1 + 8 + 3], std::byte{6}); // a of pixel (2,1)
}

TEST(Png, EncodeDecodeRoundTripRandomImages) {
  pal::Rng rng(31);
  for (const auto& [w, h] :
       std::vector<std::pair<int, int>>{{1, 1}, {7, 3}, {32, 32}, {65, 17}}) {
    Image img(w, h);
    for (Rgba& p : img.pixels()) {
      p = {static_cast<std::uint8_t>(rng.next_below(256)),
           static_cast<std::uint8_t>(rng.next_below(256)),
           static_cast<std::uint8_t>(rng.next_below(256)),
           static_cast<std::uint8_t>(rng.next_below(256))};
    }
    for (const bool filter : {true, false}) {
      for (const bool compress : {true, false}) {
        auto decoded = png::decode(
            png::encode(img, {.compress = compress, .filter = filter}));
        ASSERT_TRUE(decoded.ok()) << w << "x" << h;
        EXPECT_EQ(decoded->width(), w);
        EXPECT_EQ(decoded->height(), h);
        EXPECT_EQ(decoded->color_hash(), img.color_hash())
            << "filter=" << filter << " compress=" << compress;
      }
    }
  }
}

TEST(Png, FilteringImprovesGradientCompression) {
  // Smooth gradients are where Sub/Up filtering pays off.
  Image img(128, 128);
  for (int y = 0; y < 128; ++y) {
    for (int x = 0; x < 128; ++x) {
      img.pixel(x, y) = {static_cast<std::uint8_t>(x + y),
                         static_cast<std::uint8_t>(2 * x + 3),
                         static_cast<std::uint8_t>(255 - y), 255};
    }
  }
  const auto filtered = png::encode(img, {.compress = true, .filter = true});
  const auto unfiltered =
      png::encode(img, {.compress = true, .filter = false});
  EXPECT_LT(filtered.size(), unfiltered.size());
  // And both still decode correctly.
  EXPECT_EQ(png::decode(filtered)->color_hash(), img.color_hash());
  EXPECT_EQ(png::decode(unfiltered)->color_hash(), img.color_hash());
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    h = (h ^ static_cast<std::uint64_t>(b)) * 0x100000001b3ULL;
  }
  return h;
}

/// Fixed test images for the golden encoder digests: a smooth gradient
/// (Sub/Up filters win), seeded noise (None wins), a single pixel, and an
/// odd-width image mixing a flat field with a noisy band.
Image golden_image(const std::string& kind) {
  if (kind == "gradient") {
    Image img(128, 96);
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        img.pixel(x, y) = {static_cast<std::uint8_t>(x + y),
                           static_cast<std::uint8_t>(2 * x + 3),
                           static_cast<std::uint8_t>(255 - y), 255};
      }
    }
    return img;
  }
  pal::Rng rng(kind == "noisy" ? 2024 : 77);
  const auto noise = [&] {
    return static_cast<std::uint8_t>(rng.next_below(256));
  };
  if (kind == "noisy") {
    Image img(64, 48);
    for (Rgba& p : img.pixels()) p = {noise(), noise(), noise(), noise()};
    return img;
  }
  if (kind == "1x1") {
    Image img(1, 1);
    img.pixel(0, 0) = {12, 200, 7, 255};
    return img;
  }
  Image img(37, 11);  // "odd"
  img.clear(Rgba{30, 40, 50, 255});
  for (int y = 3; y < 7; ++y) {
    for (int x = 5; x < 31; ++x) {
      img.pixel(x, y) = {noise(), static_cast<std::uint8_t>(x * 7), noise(),
                         255};
    }
  }
  return img;
}

TEST(Png, GoldenEncoderBytes) {
  // Digests of png::encode recorded from the reference (byte-at-a-time)
  // encoder. Any encoder rewrite must reproduce these streams exactly.
  struct Golden {
    const char* image;
    bool compress;
    bool filter;
    std::size_t size;
    std::uint64_t fnv;
  };
  const Golden goldens[] = {
      {"gradient", true, true, 545, 0xf8a754e1e136f676ULL},
      {"gradient", true, false, 53401, 0x76460d3a02114482ULL},
      {"gradient", false, true, 49316, 0xa593c739e029b1faULL},
      {"gradient", false, false, 49316, 0xc142151b595c151aULL},
      {"noisy", true, true, 13074, 0x6225b423455372b0ULL},
      {"noisy", true, false, 13068, 0x0accda97af67cc92ULL},
      {"noisy", false, true, 12404, 0xf01642ae79556d57ULL},
      {"noisy", false, false, 12404, 0x6de137d746d4bd6bULL},
      {"1x1", true, true, 70, 0xbc41a49831c5af7fULL},
      {"1x1", true, false, 70, 0xbc41a49831c5af7fULL},
      {"1x1", false, true, 73, 0x4dc9f587fb7fae08ULL},
      {"1x1", false, false, 73, 0x4dc9f587fb7fae08ULL},
      {"odd", true, true, 522, 0x389b606d2b50d38cULL},
      {"odd", true, false, 534, 0x5531f0c958078d55ULL},
      {"odd", false, true, 1707, 0x50592a0519792564ULL},
      {"odd", false, false, 1707, 0xc2116227b8750370ULL},
  };
  for (const Golden& g : goldens) {
    const auto bytes = png::encode(
        golden_image(g.image), {.compress = g.compress, .filter = g.filter});
    EXPECT_EQ(bytes.size(), g.size)
        << g.image << " compress=" << g.compress << " filter=" << g.filter;
    EXPECT_EQ(fnv1a(bytes), g.fnv)
        << std::hex << g.image << " compress=" << g.compress
        << " filter=" << g.filter;
  }
}

TEST(Png, GoldenDeflateWrapsWindowAndReachesMaxMatch) {
  // 125,000 bytes, so the 32 KiB match window wraps several times: a
  // long-period random
  // stretch (matches near the 32 KiB distance limit), a short period
  // (258-byte matches), a zero run and a 4-symbol alphabet (dense hash
  // chains, short matches).
  pal::Rng rng(9);
  std::vector<std::byte> data;
  std::vector<std::byte> period(30011);
  for (auto& b : period) b = static_cast<std::byte>(rng.next_below(256));
  for (std::size_t i = 0; i < 40000; ++i) {
    data.push_back(period[i % period.size()]);
  }
  for (std::size_t i = 0; i < 40000; ++i) data.push_back(period[i % 997]);
  data.insert(data.end(), 5000, std::byte{0});
  for (std::size_t i = 0; i < 40000; ++i) {
    data.push_back(static_cast<std::byte>('a' + rng.next_below(4)));
  }
  const auto deflated = png::deflate_fixed(data);
  EXPECT_EQ(deflated.size(), 49693u);
  EXPECT_EQ(fnv1a(deflated), 0xb3f3889f0835100eULL)
      << std::hex << fnv1a(deflated);
  auto inflated = png::inflate(deflated);
  ASSERT_TRUE(inflated.ok());
  EXPECT_TRUE(*inflated == data);
}

TEST(Png, Crc32ChainsThroughSeed) {
  // crc32(a || b) continues from crc32(a) through the seed.
  pal::Rng rng(3);
  std::vector<std::byte> ab(1000);
  for (auto& b : ab) b = static_cast<std::byte>(rng.next_below(256));
  for (const std::size_t cut : {0u, 1u, 7u, 8u, 9u, 500u, 999u, 1000u}) {
    const auto a = std::span<const std::byte>(ab).first(cut);
    const auto b = std::span<const std::byte>(ab).subspan(cut);
    EXPECT_EQ(png::crc32(b, png::crc32(a) ^ 0xFFFFFFFFu), png::crc32(ab))
        << "cut=" << cut;
  }
}

TEST(Png, Adler32MatchesPerByteModulo) {
  pal::Rng rng(4);
  // Adler-32 against the per-byte modulo definition, across the 5552-byte
  // deferred-modulo block and with all-0xFF input (the overflow worst case).
  for (const std::size_t n : {0u, 1u, 5551u, 5552u, 5553u, 100000u}) {
    for (const bool ones : {true, false}) {
      std::vector<std::byte> data(n, std::byte{0xFF});
      if (!ones) {
        for (auto& b : data) b = static_cast<std::byte>(rng.next_below(256));
      }
      std::uint32_t s1 = 1, s2 = 0;
      for (const std::byte b : data) {
        s1 = (s1 + static_cast<std::uint32_t>(b)) % 65521u;
        s2 = (s2 + s1) % 65521u;
      }
      EXPECT_EQ(png::adler32(data), (s2 << 16) | s1) << "n=" << n;
    }
  }
}

TEST(Png, DecodeRejectsGarbage) {
  std::vector<std::byte> junk(64, std::byte{0x42});
  EXPECT_FALSE(png::decode(junk).ok());
  EXPECT_FALSE(png::decode({}).ok());
}

TEST(Png, WriteFile) {
  Image img(8, 8);
  img.clear(Rgba{255, 0, 0, 255});
  const test::TestDir tmp;
  const std::string path = tmp.file("png.png");
  ASSERT_TRUE(png::write_file(path, img).ok());
  EXPECT_GT(std::filesystem::file_size(path), 50u);
}

TEST(Camera, OrthographicProjectionCentersTarget) {
  Camera cam = Camera::look_at({0, 0, 10}, {0, 0, 0}, {0, 1, 0});
  cam.set_ortho_half_height(2.0);
  const auto [x, y, depth] = cam.project({0, 0, 0});
  EXPECT_NEAR(x, 0.0, 1e-12);
  EXPECT_NEAR(y, 0.0, 1e-12);
  EXPECT_NEAR(depth, 10.0, 1e-12);
  const auto [x2, y2, d2] = cam.project({0, 2, 0});
  EXPECT_NEAR(y2, 1.0, 1e-12);  // top of view volume
}

TEST(Camera, PerspectiveShrinksWithDistance) {
  Camera cam = Camera::look_at({0, 0, 10}, {0, 0, 0}, {0, 1, 0},
                               Camera::Projection::kPerspective);
  const auto near_pt = cam.project({1, 0, 5});
  const auto far_pt = cam.project({1, 0, -5});
  EXPECT_GT(near_pt[0], far_pt[0]);
}

}  // namespace
}  // namespace insitu::render
