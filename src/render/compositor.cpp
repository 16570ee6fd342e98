#include "render/compositor.hpp"

#include <cstring>

#include "exec/task_pool.hpp"
#include "kernels/kernels.hpp"
#include "pal/buffer_pool.hpp"

namespace insitu::render {

namespace {

constexpr int kTagTree = 9001;
constexpr int kTagSwapBase = 9100;
constexpr int kTagGather = 9090;

/// Pack a [begin, end) pixel range, colors then depths, into a pooled
/// buffer after `header` bytes; the buffer is sent by move.
std::vector<std::byte> pack_range(const Image& img, std::int64_t begin,
                                  std::int64_t end,
                                  std::span<const std::byte> header = {}) {
  const std::size_t n = static_cast<std::size_t>(end - begin);
  const auto colors =
      std::as_bytes(std::span(img.pixels()).subspan(begin, n));
  const auto depths =
      std::as_bytes(std::span(img.depths()).subspan(begin, n));
  std::vector<std::byte> out = pal::buffer_pool().acquire(
      header.size() + colors.size() + depths.size());
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), colors.begin(), colors.end());
  out.insert(out.end(), depths.begin(), depths.end());
  return out;
}

/// Composite a received [begin, end) range into `img` (nearer depth wins),
/// then return its buffer to the pool.
void merge_range(Image& img, std::int64_t begin,
                 std::vector<std::byte>&& packed) {
  const std::size_t n = packed.size() / (sizeof(Rgba) + sizeof(float));
  const auto* colors = reinterpret_cast<const Rgba*>(packed.data());
  const auto* depths = reinterpret_cast<const float*>(
      packed.data() + n * sizeof(Rgba));
  Rgba* dst_c = img.pixels().data() + begin;
  float* dst_d = img.depths().data() + begin;
  // Per-pixel depth test: disjoint indices, so the parallel result is
  // identical to the serial loop.
  exec::parallel_for(
      0, static_cast<std::int64_t>(n), 16384,
      [&](std::int64_t lo, std::int64_t hi) {
        kernels::depth_composite(reinterpret_cast<std::uint8_t*>(dst_c + lo),
                                 dst_d + lo,
                                 reinterpret_cast<const std::uint8_t*>(
                                     colors + lo),
                                 depths + lo, hi - lo);
      });
  pal::buffer_pool().release(std::move(packed));
}

/// Store a gathered strip (its begin offset, then colors and depths) into
/// `img`, replacing what is there, then return its buffer to the pool.
/// Folded ranks send an empty message: they own no strip.
void store_strip(Image& img, std::vector<std::byte>&& packed) {
  if (!packed.empty()) {
    std::int64_t begin = 0;
    std::memcpy(&begin, packed.data(), sizeof begin);
    const std::span<const std::byte> body =
        std::span<const std::byte>(packed).subspan(sizeof begin);
    const std::size_t n = body.size() / (sizeof(Rgba) + sizeof(float));
    std::memcpy(img.pixels().data() + begin, body.data(), n * sizeof(Rgba));
    std::memcpy(img.depths().data() + begin, body.data() + n * sizeof(Rgba),
                n * sizeof(float));
  }
  pal::buffer_pool().release(std::move(packed));
}

/// Per-pixel blend cost charged on top of the real byte movement.
void charge_blend(comm::Communicator& comm, std::int64_t pixels) {
  comm.advance_compute(static_cast<double>(pixels) /
                       comm.machine().pixel_blend_rate);
}

bool composite_tree(comm::Communicator& comm, Image& frame) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::int64_t npx = frame.num_pixels();

  // Binomial reduction: at stage s, ranks with bit s set send their full
  // image to (rank - 2^s) and drop out.
  for (int stride = 1; stride < size; stride <<= 1) {
    if ((rank & stride) != 0) {
      comm.send(rank - stride, kTagTree, pack_range(frame, 0, npx));
      return false;  // dropped out; no result on this rank
    }
    const int partner = rank + stride;
    if (partner < size) {
      merge_range(frame, 0, comm.recv(partner, kTagTree));
      charge_blend(comm, npx);
    }
  }
  return true;
}

bool composite_binary_swap(comm::Communicator& comm, Image& frame) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::int64_t npx = frame.num_pixels();
  if (size == 1) return true;

  // Largest power of two <= size.
  int pow2 = 1;
  while (pow2 * 2 <= size) pow2 *= 2;

  // Fold phase: extra ranks send their whole image into the pow2 set.
  if (rank >= pow2) {
    comm.send(rank - pow2, kTagSwapBase, pack_range(frame, 0, npx));
    // Extra ranks still participate in the final gather (with nothing).
    comm.send(0, kTagGather, {});
    return false;
  }
  if (rank + pow2 < size) {
    merge_range(frame, 0, comm.recv(rank + pow2, kTagSwapBase));
    charge_blend(comm, npx);
  }

  // Swap phase over the pow2 set: each stage halves the owned range.
  std::int64_t begin = 0;
  std::int64_t end = npx;
  int stage = 0;
  for (int stride = 1; stride < pow2; stride <<= 1, ++stage) {
    const int partner = rank ^ stride;
    const std::int64_t mid = begin + (end - begin) / 2;
    const bool keep_low = (rank & stride) == 0;
    const std::int64_t keep_begin = keep_low ? begin : mid;
    const std::int64_t keep_end = keep_low ? mid : end;
    const std::int64_t send_begin = keep_low ? mid : begin;
    const std::int64_t send_end = keep_low ? end : mid;

    comm.send(partner, kTagSwapBase + 1 + stage,
              pack_range(frame, send_begin, send_end));
    merge_range(frame, keep_begin,
                comm.recv(partner, kTagSwapBase + 1 + stage));
    charge_blend(comm, keep_end - keep_begin);

    begin = keep_begin;
    end = keep_end;
  }

  // Gather the distributed strips straight into rank 0's frame. The strips
  // of the pow2 set tile [0, npx), so every pixel outside rank 0's own
  // strip is overwritten. Receives name their source: a rank that finishes
  // early may already have sent its next call's gather message, which an
  // any-source receive could take in place of a slower rank's strip.
  if (rank == 0) {
    for (int src = 1; src < size; ++src) {
      store_strip(frame, comm.recv(src, kTagGather));
    }
    return true;
  }
  comm.send(0, kTagGather,
            pack_range(frame, begin, end,
                       std::as_bytes(std::span(&begin, 1))));
  return false;
}

}  // namespace

bool composite(comm::Communicator& comm, Image& frame,
               CompositeAlgorithm algorithm) {
  switch (algorithm) {
    case CompositeAlgorithm::kTree: return composite_tree(comm, frame);
    case CompositeAlgorithm::kBinarySwap:
      return composite_binary_swap(comm, frame);
  }
  return false;
}

}  // namespace insitu::render
