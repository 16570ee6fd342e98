#pragma once

// Framebuffer with depth: the unit of work in rank-level rendering and
// image compositing. RGBA8 color + float32 depth per pixel.

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/kernels.hpp"
#include "pal/memory_tracker.hpp"

namespace insitu::render {

struct Rgba {
  std::uint8_t r = 0, g = 0, b = 0, a = 0;
  bool operator==(const Rgba&) const = default;
};

class Image {
 public:
  Image() = default;
  Image(int width, int height) { reset(width, height); }

  // Move-only: a full-frame copy is explicit (clone()), never implicit.
  Image(Image&&) noexcept = default;
  Image& operator=(Image&&) noexcept = default;
  Image(const Image&) = delete;
  Image& operator=(const Image&) = delete;

  /// Deep copy, charged to the calling rank's tracker.
  Image clone() const {
    Image copy;
    copy.width_ = width_;
    copy.height_ = height_;
    copy.pixels_ = pixels_;
    copy.depth_ = depth_;
    copy.tracked_.resize(pixels_.size() * (sizeof(Rgba) + sizeof(float)));
    return copy;
  }

  void reset(int width, int height) {
    width_ = width;
    height_ = height;
    const std::size_t n =
        static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
    pixels_.assign(n, Rgba{});
    depth_.assign(n, std::numeric_limits<float>::infinity());
    tracked_.resize(n * (sizeof(Rgba) + sizeof(float)));
  }

  int width() const { return width_; }
  int height() const { return height_; }
  std::int64_t num_pixels() const {
    return static_cast<std::int64_t>(width_) * height_;
  }
  bool empty() const { return pixels_.empty(); }

  Rgba& pixel(int x, int y) {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  const Rgba& pixel(int x, int y) const {
    return pixels_[static_cast<std::size_t>(y) * width_ + x];
  }
  float& depth(int x, int y) {
    return depth_[static_cast<std::size_t>(y) * width_ + x];
  }
  float depth(int x, int y) const {
    return depth_[static_cast<std::size_t>(y) * width_ + x];
  }

  std::vector<Rgba>& pixels() { return pixels_; }
  const std::vector<Rgba>& pixels() const { return pixels_; }
  std::vector<float>& depths() { return depth_; }
  const std::vector<float>& depths() const { return depth_; }

  void clear(Rgba background) {
    std::fill(pixels_.begin(), pixels_.end(), background);
    std::fill(depth_.begin(), depth_.end(),
              std::numeric_limits<float>::infinity());
  }

  /// Depth-composite `other` over this image: nearer fragment wins.
  void composite_over(const Image& other) {
    kernels::depth_composite(
        reinterpret_cast<std::uint8_t*>(pixels_.data()), depth_.data(),
        reinterpret_cast<const std::uint8_t*>(other.pixels_.data()),
        other.depth_.data(), static_cast<std::int64_t>(pixels_.size()));
  }

  /// FNV-1a hash of the color plane; used for determinism checks.
  std::uint64_t color_hash() const {
    std::uint64_t h = 1469598103934665603ULL;
    for (const Rgba& p : pixels_) {
      for (std::uint8_t c : {p.r, p.g, p.b, p.a}) {
        h ^= c;
        h *= 1099511628211ULL;
      }
    }
    return h;
  }

  std::size_t color_bytes() const { return pixels_.size() * sizeof(Rgba); }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<Rgba> pixels_;
  std::vector<float> depth_;
  pal::TrackedBytes tracked_;
};

}  // namespace insitu::render
