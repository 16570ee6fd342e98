#pragma once

// Cinema-style "explorable extract" generation (§2.2.4).
//
// The paper surveys the research thrust of "computing 'explorable data
// products' that are much smaller than the full-resolution data, and that
// support varying degrees of post hoc interactive exploration", citing
// Ahrens et al.'s Cinema image databases, and notes such methods "will be
// run in situ, most likely using one of the infrastructures we study".
// This backend is exactly that: an AnalysisAdaptor that renders an
// isosurface of the selected field from a sweep of camera positions every
// trigger step and writes a Cinema-like image database (images + a text
// index enumerating the phi/theta/time axes).

#include <string>

#include "core/analysis_adaptor.hpp"
#include "render/image.hpp"

namespace insitu::backends {

struct CinemaConfig {
  std::string array = "data";
  data::Association association = data::Association::kPoint;
  /// Isovalue as a fraction of the global [min, max] range each step.
  double iso_fraction = 0.5;
  int camera_phi = 4;    ///< azimuth samples around the dataset
  int camera_theta = 2;  ///< elevation samples
  int image_width = 256;
  int image_height = 256;
  std::string colormap = "cool_warm";
  int every_n_steps = 1;
  /// Directory for the database; empty keeps everything in memory
  /// (images_produced() still counts).
  std::string output_directory;
  bool compress_png = true;
};

class CinemaExtract final : public core::AnalysisAdaptor {
 public:
  explicit CinemaExtract(CinemaConfig config) : config_(std::move(config)) {}

  std::string name() const override { return "cinema-extract"; }

  Status initialize(comm::Communicator& comm) override;
  StatusOr<bool> execute(core::DataAdaptor& data) override;
  /// Writes the database index on rank 0 and frees the working frame.
  Status finalize(comm::Communicator& comm) override;

  long images_produced() const { return images_; }
  long steps_captured() const { return static_cast<long>(steps_.size()); }
  /// Hash of the last composited image (rank 0; determinism checks).
  std::uint64_t last_image_hash() const { return last_hash_; }

  /// The index text rank 0 would write (exposed for tests).
  std::string index_text() const;

 private:
  CinemaConfig config_;
  long images_ = 0;
  std::vector<long> steps_;
  std::uint64_t last_hash_ = 0;
  render::Image frame_;  ///< composited into in place, per camera
};

}  // namespace insitu::backends
