#pragma once

// The oscillator miniapplication (§3.3):
//
// "an MPI code in C++ that simulates a collection of periodic, damped, or
//  decaying oscillators. Placed on a grid, each oscillator is convolved
//  with a Gaussian of a prescribed width. The oscillator parameters are
//  specified as the input, which is read and broadcast from the root
//  process. The user also specifies the time resolution, duration of the
//  simulation, and the dimensions of the grid, partitioned between the
//  processes using regular decomposition. The code iteratively fills the
//  grid cells with the sum of the convolved oscillator values; the
//  computation on each rank takes O(m N^3) per time step ... The
//  computation is embarrassingly parallel; optionally, the ranks may
//  synchronize after every time step."

#include <array>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "data/image_data.hpp"
#include "pal/status.hpp"

namespace insitu::miniapp {

struct Oscillator {
  enum class Kind { kPeriodic, kDamped, kDecaying };

  Kind kind = Kind::kPeriodic;
  data::Vec3 center;
  double radius = 1.0;  ///< Gaussian width of the convolution
  double omega = 1.0;   ///< angular frequency
  double zeta = 0.0;    ///< damping ratio (damped oscillators)

  /// Time factor of this oscillator at time t.
  double time_factor(double t) const;
  /// Convolved contribution at position p, time t.
  double value_at(const data::Vec3& p, double t) const;
};

/// Parse an oscillator input deck: one oscillator per line,
///   <kind> <x> <y> <z> <radius> <omega> [zeta]
/// with '#' comments. Kind is "periodic", "damped" or "decaying".
StatusOr<std::vector<Oscillator>> parse_oscillators(const std::string& text);

struct OscillatorConfig {
  std::array<std::int64_t, 3> global_cells = {64, 64, 64};
  double dt = 0.01;
  std::vector<Oscillator> oscillators;
  bool sync_every_step = false;  ///< off in the paper's experiments

  /// When nonzero, virtual compute time is charged as if each rank held
  /// this many grid points (the paper-scale workload) while the actual
  /// arrays stay at executed scale. 0 = charge actual size.
  std::int64_t modeled_points_per_rank = 0;
  /// Relative cost of one oscillator-cell update (exp + trig).
  double work_per_update = 12.0;
};

/// One rank's portion of the oscillator simulation. The value buffer is
/// simulation-owned memory (the thing the SENSEI adaptor zero-copy wraps).
class OscillatorSim {
 public:
  OscillatorSim(comm::Communicator& comm, OscillatorConfig config);

  /// Root broadcasts the input deck to all ranks (the paper's startup),
  /// then every rank fills its grid for t = 0.
  void initialize();

  /// Advance one step: refill the local grid at the new time.
  void step();

  double time() const { return time_; }
  long step_index() const { return step_; }
  const OscillatorConfig& config() const { return config_; }
  const data::IndexBox& local_box() const { return box_; }

  /// The local uniform grid (geometry only; no arrays attached).
  data::ImageDataPtr make_grid() const;

  /// Simulation-native storage: one double per local grid *point*.
  std::vector<double>& values() { return values_; }
  const std::vector<double>& values() const { return values_; }

  std::int64_t local_points() const {
    return static_cast<std::int64_t>(values_.size());
  }

 private:
  void fill_grid();

  comm::Communicator& comm_;
  OscillatorConfig config_;
  data::IndexBox box_;
  std::vector<double> values_;
  pal::TrackedBytes tracked_;
  double time_ = 0.0;
  long step_ = 0;
  /// miniapp.step.seconds in the rank's registry, bound on first step().
  obs::Histogram* step_seconds_ = nullptr;
};

}  // namespace insitu::miniapp
