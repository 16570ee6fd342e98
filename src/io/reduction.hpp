#pragma once

// In transit data reduction (docs/PERFORMANCE.md "In transit data
// reduction").
//
// The staging transports (FlexPath, ADIOS-BP) are bandwidth-bound: once
// analysis is offloaded, bytes moved per step dominate the per-timestep
// cost (§4.1.4, figs. 8-9). The winning move is to reduce the data
// *before* transport rather than throttle the producer. This module is
// that stage: a serializer that applies a per-variable reduction *level*
// to every float64 attribute array while framing the mesh exactly like
// the BP stream, plus a hysteretic controller that picks the level from
// the staging queue's backpressure signal.
//
// Levels, in order of increasing reduction (and decreasing fidelity):
//   none      — raw AoS payload, byte-identical to the BP framing's.
//   delta     — XOR of IEEE-754 bit patterns against the previous step's
//               reconstruction, zero-run RLE-compressed. LOSSLESS: the
//               decoder reconstructs every bit, including NaN payloads,
//               denormals, and signed zeros. Compression is data-
//               dependent (unchanged values become zero words).
//   subsample — stride decimation over the flattened tuple stream
//               (i-fastest): tuples 0, s, 2s, ... travel; the decoder
//               reconstructs piecewise-constant (nearest previous kept
//               tuple). LOSSY; bytes shrink by ~1/stride.
//   quantize  — fixed-rate 16-bit block quantizer: each 256-value chunk
//               carries its exact min (f64 lo) and step
//               (max-min)/65535 (f64), then one u16 code per value.
//               LOSSY with a per-chunk error bound of step/2 for finite
//               values; NaN encodes as code 0 (reconstructs to the chunk
//               lo). ~3.9x smaller than raw f64.
//
// Non-float64 arrays (and empty arrays) always travel raw, whatever the
// level — the reduction primitives are double-typed and the ghost/flag
// arrays they would mangle are tiny.
//
// Previous-step retention: encoder and decoder each keep, per array
// (keyed by block id + association + name), the *reconstruction* of the
// last step's values in pooled buffers (pal::BufferPool). Because the
// encoder stores what the decoder will reconstruct — exact values for
// none/delta, the lossy reconstruction for subsample/quantize — the two
// sides stay in lockstep and delta is bit-lossless against the shared
// prev even when the controller switches levels mid-run. The first step
// (or a shape change) deltas against zeros.
//
// Determinism: encode is pure arithmetic over the payload (the kernels
// are bit-identical across dispatch variants; chunk min/max use the
// exact min/max of kernels::reduce_moments), so streams are byte-
// identical run-to-run and across kernel variants (Options::kernels).

#include <map>
#include <string>

#include "data/multiblock.hpp"
#include "pal/buffer_pool.hpp"
#include "pal/config.hpp"
#include "pal/status.hpp"

namespace insitu::io {

enum class ReductionLevel : std::uint8_t {
  kNone = 0,
  kDelta = 1,
  kSubsample = 2,
  kQuantize = 3,
};

inline constexpr int kNumReductionLevels = 4;

const char* to_string(ReductionLevel level);
StatusOr<ReductionLevel> parse_reduction_level(std::string_view name);

/// Per-chunk value count of the quantize level; each chunk carries a
/// 16-byte (lo, step) header, so the fixed-rate cost is
/// 2 + 16/kQuantizeChunk bytes per value (~3.9x under raw f64).
inline constexpr std::int64_t kQuantizeChunk = 256;

struct ReductionOptions {
  /// Base level applied to every variable (per_variable overrides win).
  ReductionLevel level = ReductionLevel::kNone;
  /// Adaptive controller: raise the level under backpressure, lower it
  /// hysteretically as queues drain. The base `level` is the floor.
  bool adaptive = false;
  /// Queue-depth signal at or above which the controller raises one
  /// level. The FlexPath writer's signal is outstanding staged steps
  /// plus one when the submit virtually stalled, so with the default
  /// queue depth 2 the signal saturates at 3 = "producer blocked".
  int raise_depth = 3;
  /// Signal at or below which a step counts toward lowering.
  int lower_depth = 2;
  /// Consecutive calm steps required before lowering one level (the
  /// hysteresis that prevents oscillation).
  int hysteresis_steps = 2;
  /// Decimation stride of the subsample level.
  int subsample_stride = 2;
  /// Per-variable level overrides (exempt a variable with "none", or
  /// force one lossy while the rest stay lossless).
  std::map<std::string, ReductionLevel, std::less<>> per_variable;

  /// True when any setting engages the pipeline; false means the
  /// transport should bypass reduction entirely (bit-identical to the
  /// pre-reduction stream).
  bool engaged() const {
    return level != ReductionLevel::kNone || adaptive || !per_variable.empty();
  }
};

/// Parse + strictly validate the `[reduction]` section of a config
/// (level, adaptive, raise_depth, lower_depth, hysteresis_steps,
/// subsample_stride, var.<name> overrides). Unknown keys are rejected by
/// backends::Configurable's section validation; this checks values.
StatusOr<ReductionOptions> parse_reduction_options(const pal::Config& config);

/// Hysteretic level controller. Deterministic: state transitions are
/// pure integer arithmetic on the observed queue-depth signal, which the
/// FlexPath writer derives from OverlapQueueModel's virtual-time
/// admission (never wall-clock message arrival — see
/// docs/PERFORMANCE.md on why probing mailboxes would break run-to-run
/// determinism).
class ReductionController {
 public:
  explicit ReductionController(const ReductionOptions& options = {});

  /// The level the next step should encode at.
  ReductionLevel level() const { return static_cast<ReductionLevel>(level_); }

  /// Feed one post-submit depth observation: at/above raise_depth the
  /// level raises one notch immediately; at/below lower_depth for
  /// hysteresis_steps consecutive observations it lowers one notch
  /// (never below the configured base); anything between holds and
  /// resets the calm streak.
  void observe(int depth);

  long raises() const { return raises_; }
  long lowers() const { return lowers_; }

 private:
  int base_;
  int raise_depth_;
  int lower_depth_;
  int hysteresis_;
  int level_;
  int calm_ = 0;
  long raises_ = 0;
  long lowers_ = 0;
};

/// Stateful reduction codec over BP-shaped meshes. One instance per
/// stream direction (the FlexPath writer owns an encoder, the endpoint a
/// decoder); the prev-step retention maps are keyed by global block id,
/// so one decoder serves an M:N endpoint's whole fan-in.
class ReductionPipeline {
 public:
  struct EncodeStats {
    std::int64_t bytes_in = 0;   ///< raw AoS payload bytes consumed
    std::int64_t bytes_out = 0;  ///< coded payload bytes produced
  };

  /// `backend_label` stamps the io.reduction.* metrics ("flexpath",
  /// "bp", ...).
  explicit ReductionPipeline(ReductionOptions options = {},
                             std::string backend_label = "io");

  /// Serialize `mesh` into `out` (appended) at `level`, publishing
  /// io.reduction.{level,bytes_in,bytes_out}{variable=,backend=} and an
  /// io.reduction.encode.seconds{backend=} wall-time sample. Non-
  /// ImageData blocks are skipped (mirroring bp_serialize_into).
  EncodeStats encode(const data::MultiBlockDataSet& mesh,
                     ReductionLevel level, std::vector<std::byte>& out);

  /// Inverse of encode. Reconstruction is bit-exact for none/delta and
  /// piecewise-constant / step-bounded for subsample/quantize.
  StatusOr<data::MultiBlockPtr> decode(std::span<const std::byte> bytes);

  /// True when `bytes` begins with the reduced-stream magic (transports
  /// use this to route between bp_deserialize and decode).
  static bool is_reduced_stream(std::span<const std::byte> bytes);

  /// Drop all previous-step retention (the next delta is against zeros)
  /// and return the pooled buffers.
  void reset();

  const ReductionOptions& options() const { return options_; }

 private:
  const std::vector<std::byte>& prev_values(const std::string& key,
                                            std::size_t value_bytes);
  void retain(const std::string& key, const double* values, std::int64_t n);
  void encode_array(std::int64_t block_id, data::Association assoc,
                    const data::DataArray& array, ReductionLevel level,
                    std::vector<std::byte>& out, EncodeStats* stats);
  void publish_array_metrics(const std::string& variable, ReductionLevel eff,
                             std::int64_t bytes_in, std::int64_t bytes_out);
  Status decode_values(ReductionLevel eff, std::span<const std::byte> coded,
                       std::int64_t n, std::int64_t tuples, int components,
                       int stride, const std::string& key, double* recon);

  ReductionOptions options_;
  std::string backend_;
  /// Reconstructed previous-step values per array, in pooled buffers.
  std::map<std::string, pal::PooledBuffer> prev_;
  pal::PooledBuffer scratch_raw_;    ///< AoS staging of the current array
  pal::PooledBuffer scratch_words_;  ///< delta words / quantize codes
  pal::PooledBuffer scratch_coded_;  ///< RLE staging / reconstructions
  pal::PooledBuffer scratch_zero_;   ///< zero prev for first-step deltas
};

}  // namespace insitu::io
