#include "analysis/contour.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/derived.hpp"
#include "data/image_data.hpp"
#include "data/unstructured_grid.hpp"
#include "kernels/kernels.hpp"

namespace insitu::analysis {
namespace {

using data::DataArray;
using data::ImageData;
using data::IndexBox;
using data::Vec3;

/// Uniform grid [0,n]^3 with a per-point scalar from a lambda.
template <typename F>
std::shared_ptr<ImageData> make_field(std::int64_t n, F&& f) {
  IndexBox box;
  box.cells = {n, n, n};
  auto img = std::make_shared<ImageData>(box, Vec3{}, Vec3{1, 1, 1});
  auto values = DataArray::create<double>("s", img->num_points(), 1);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    values->set(i, 0, f(img->point(i)));
  }
  img->point_fields().add(values);
  return img;
}

TEST(SliceAxis, PlanarSliceLiesOnPlane) {
  auto img = make_field(8, [](const Vec3& p) { return p.x + p.y; });
  auto mesh = slice_axis(*img, "s", /*axis=*/2, /*value=*/3.5);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR(v.z, 3.5, 1e-9);
  }
}

TEST(SliceAxis, ScalarInterpolatedOntoSlice) {
  auto img = make_field(8, [](const Vec3& p) { return 2.0 * p.x; });
  auto mesh = slice_axis(*img, "s", 2, 4.0);
  ASSERT_TRUE(mesh.ok());
  for (std::size_t i = 0; i < mesh->vertices.size(); ++i) {
    EXPECT_NEAR(mesh->scalars[i], 2.0 * mesh->vertices[i].x, 1e-9);
  }
}

TEST(SliceAxis, SliceAreaMatchesDomainCrossSection) {
  auto img = make_field(8, [](const Vec3& p) { return p.x; });
  auto mesh = slice_axis(*img, "s", 0, 2.5);
  ASSERT_TRUE(mesh.ok());
  // Sum of triangle areas should equal the 8x8 cross-section.
  double area = 0.0;
  for (const auto& tri : mesh->triangles) {
    const Vec3 a = mesh->vertices[static_cast<std::size_t>(tri[0])];
    const Vec3 b = mesh->vertices[static_cast<std::size_t>(tri[1])];
    const Vec3 c = mesh->vertices[static_cast<std::size_t>(tri[2])];
    area += 0.5 * (b - a).cross(c - a).norm();
  }
  EXPECT_NEAR(area, 64.0, 1e-6);
}

TEST(SliceAxis, MissedPlaneProducesEmptyMesh) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });
  auto mesh = slice_axis(*img, "s", 1, 100.0);
  ASSERT_TRUE(mesh.ok());
  EXPECT_TRUE(mesh->empty());
}

TEST(SliceAxis, InvalidAxisRejected)
{
  auto img = make_field(2, [](const Vec3& p) { return p.x; });
  EXPECT_FALSE(slice_axis(*img, "s", 3, 0.0).ok());
  EXPECT_FALSE(slice_axis(*img, "s", -1, 0.0).ok());
}

TEST(SliceAxis, MissingArrayRejected) {
  auto img = make_field(2, [](const Vec3& p) { return p.x; });
  EXPECT_FALSE(slice_axis(*img, "nope", 0, 1.0).ok());
}

/// Bit-for-bit mesh equality (vertices, scalars, triangles in order).
void expect_identical(const TriangleMesh& a, const TriangleMesh& b,
                      const std::string& what) {
  ASSERT_EQ(a.vertices.size(), b.vertices.size()) << what;
  ASSERT_EQ(a.scalars.size(), b.scalars.size()) << what;
  ASSERT_EQ(a.triangles.size(), b.triangles.size()) << what;
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t i = 0; i < a.vertices.size(); ++i) {
    const Vec3 p = a.vertices[i], q = b.vertices[i];
    ASSERT_EQ(bits(p.x), bits(q.x)) << what << " v" << i;
    ASSERT_EQ(bits(p.y), bits(q.y)) << what << " v" << i;
    ASSERT_EQ(bits(p.z), bits(q.z)) << what << " v" << i;
    ASSERT_EQ(bits(a.scalars[i]), bits(b.scalars[i])) << what << " s" << i;
  }
  for (std::size_t i = 0; i < a.triangles.size(); ++i) {
    ASSERT_EQ(a.triangles[i], b.triangles[i]) << what << " t" << i;
  }
}

/// An offset box with uneven spacing and a field with no symmetry.
std::shared_ptr<ImageData> offset_block(Vec3 origin, Vec3 spacing) {
  IndexBox box;
  box.cells = {7, 5, 6};
  box.offset = {3, 11, 2};
  auto img = std::make_shared<ImageData>(box, origin, spacing);
  auto values = DataArray::create<double>("s", img->num_points(), 1);
  for (std::int64_t i = 0; i < img->num_points(); ++i) {
    const Vec3 p = img->point(i);
    values->set(i, 0, std::sin(p.x) + p.y * p.z - 0.5 * p.x * p.y);
  }
  img->point_fields().add(values);
  return img;
}

/// Plane values that probe every layer boundary of `img` along `axis`:
/// on each grid plane, at half spacing, at the block's lo/hi, one ulp
/// beyond them, one spacing outside, far outside and non-finite.
std::vector<double> probe_values(const ImageData& img, int axis) {
  const auto along = [axis](Vec3 v) {
    return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
  };
  const double o = along(img.origin());
  const double s = along(img.spacing());
  const double lo = along(img.bounds().lo);
  const double hi = along(img.bounds().hi);
  const auto offset = static_cast<double>(
      img.box().offset[static_cast<std::size_t>(axis)]);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {lo,
                                hi,
                                std::nextafter(hi, inf),
                                std::nextafter(hi, -inf),
                                std::nextafter(lo, -inf),
                                std::nextafter(lo, inf),
                                lo - s,
                                hi + s,
                                lo - 1e6,
                                hi + 1e300,
                                inf,
                                -inf,
                                std::numeric_limits<double>::quiet_NaN()};
  for (std::int64_t i = 0; i <= img.cell_dim(axis); ++i) {
    const double index = offset + static_cast<double>(i);
    const double on_grid = o + s * index;
    values.push_back(on_grid);
    values.push_back(std::nextafter(on_grid, inf));
    values.push_back(std::nextafter(on_grid, -inf));
    values.push_back(o + s * (index + 0.5));
  }
  return values;
}

void expect_fast_slice_matches_full_scan(const ImageData& img,
                                         const std::string& label) {
  for (int axis = 0; axis < 3; ++axis) {
    for (const double value : probe_values(img, axis)) {
      Vec3 origin, normal;
      (axis == 0 ? origin.x : axis == 1 ? origin.y : origin.z) = value;
      (axis == 0 ? normal.x : axis == 1 ? normal.y : normal.z) = 1.0;
      auto fast = slice_axis(img, "s", axis, value);
      auto full = slice_plane(img, "s", origin, normal);
      ASSERT_TRUE(fast.ok());
      ASSERT_TRUE(full.ok());
      expect_identical(*fast, *full,
                       label + " axis " + std::to_string(axis) + " value " +
                           std::to_string(value));
    }
  }
}

TEST(SliceAxis, ImageDataFastPathMatchesFullScanBitForBit) {
  expect_fast_slice_matches_full_scan(
      *offset_block({-1.5, 0.25, 2.0}, {0.5, 0.3, 0.7}), "offset block");
  // Coordinates far from the origin relative to the spacing: grid planes
  // round, so the layer estimate is only approximate.
  expect_fast_slice_matches_full_scan(
      *offset_block({1e9, -3e7, 1e5}, {1e-7, 3e-9, 7e-11}), "coarse rounding");
  // Spacing a fraction of an ulp of the origin: several layers round to
  // the same coordinate, the layer estimate misses the cut layer, and the
  // slice must still match (through the full scan).
  const double ulp = std::nextafter(1e9, 2e9) - 1e9;
  expect_fast_slice_matches_full_scan(
      *offset_block({1e9, 1e9, 1e9}, {ulp / 5, ulp / 3, ulp / 7}),
      "sub-ulp spacing");
}

TEST(SliceAxis, ImageDataFastPathSkipsGhostCells) {
  auto img = offset_block({-1.5, 0.25, 2.0}, {0.5, 0.3, 0.7});
  auto ghosts = DataArray::create<std::uint8_t>(
      data::DataSet::kGhostArrayName, img->num_cells(), 1);
  for (std::int64_t c = 0; c < img->num_cells(); c += 3) {
    ghosts->set(c, 0, data::kGhostDuplicate);
  }
  img->set_ghost_cells(ghosts);
  expect_fast_slice_matches_full_scan(*img, "ghost cells");
}

TEST(SliceAxis, RejectsArrayThatIsNotPerPoint) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });
  img->point_fields().add(
      DataArray::create<double>("short", img->num_cells(), 1));
  EXPECT_FALSE(slice_axis(*img, "short", 2, 2.5).ok());
}

TEST(SliceAxis, ImageDataComputesDistancesOnlyNearThePlane) {
  auto img = make_field(32, [](const Vec3& p) { return p.x; });
  const auto computed = [] {
    const kernels::StatsSnapshot snap = kernels::stats_snapshot();
    std::uint64_t elements = 0;
    for (const auto& variant :
         snap.s[static_cast<int>(kernels::KernelId::kPlaneDistance)]) {
      elements += variant.elements;
    }
    return elements;
  };
  const std::uint64_t before = computed();
  auto mesh = slice_axis(*img, "s", 0, 10.5);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  // At most 4 point layers of 33 x 33 points, not all 33^3.
  EXPECT_LE(computed() - before, 4u * 33u * 33u);
}

TEST(Isosurface, SphereSurfaceHasCorrectRadius) {
  const Vec3 center{8, 8, 8};
  auto img = make_field(16, [&](const Vec3& p) { return (p - center).norm(); });
  auto mesh = isosurface(*img, "s", /*isovalue=*/5.0);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  // Every vertex sits (to linear-interpolation accuracy) near radius 5.
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR((v - center).norm(), 5.0, 0.15);
  }
  // Surface area ~ 4 pi r^2 within discretization error.
  double area = 0.0;
  for (const auto& tri : mesh->triangles) {
    const Vec3 a = mesh->vertices[static_cast<std::size_t>(tri[0])];
    const Vec3 b = mesh->vertices[static_cast<std::size_t>(tri[1])];
    const Vec3 c = mesh->vertices[static_cast<std::size_t>(tri[2])];
    area += 0.5 * (b - a).cross(c - a).norm();
  }
  EXPECT_NEAR(area, 4.0 * M_PI * 25.0, 0.05 * 4.0 * M_PI * 25.0);
}

TEST(Isosurface, EmptyWhenIsovalueOutsideRange) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });  // 0..4
  auto mesh = isosurface(*img, "s", 10.0);
  ASSERT_TRUE(mesh.ok());
  EXPECT_TRUE(mesh->empty());
}

TEST(Isosurface, GhostCellsSkipped) {
  auto img = make_field(4, [](const Vec3& p) { return p.x; });
  auto no_ghost = isosurface(*img, "s", 2.0);
  ASSERT_TRUE(no_ghost.ok());
  auto ghosts = DataArray::create<std::uint8_t>(
      data::DataSet::kGhostArrayName, img->num_cells(), 1);
  for (std::int64_t c = 0; c < img->num_cells(); ++c) {
    ghosts->set(c, 0, data::kGhostDuplicate);
  }
  img->set_ghost_cells(ghosts);
  auto all_ghost = isosurface(*img, "s", 2.0);
  ASSERT_TRUE(all_ghost.ok());
  EXPECT_FALSE(no_ghost->empty());
  EXPECT_TRUE(all_ghost->empty());
}

TEST(SlicePlane, ObliquePlane) {
  auto img = make_field(8, [](const Vec3& p) { return p.z; });
  const Vec3 origin{4, 4, 4};
  const Vec3 normal = Vec3{1, 1, 1}.normalized();
  auto mesh = slice_plane(*img, "s", origin, normal);
  ASSERT_TRUE(mesh.ok());
  EXPECT_FALSE(mesh->empty());
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR((v - origin).dot(normal), 0.0, 1e-9);
  }
}

TEST(ContourField, TetrahedralMesh) {
  // Single tet spanning the unit corner; contour f = x at 0.25.
  auto pts = DataArray::create<double>("pts", 4, 3);
  const double coords[4][3] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (int i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) pts->set(i, c, coords[i][c]);
  }
  auto grid = std::make_shared<data::UnstructuredGrid>(
      pts, std::vector<std::int64_t>{0, 1, 2, 3},
      std::vector<std::int64_t>{0, 4},
      std::vector<data::CellType>{data::CellType::kTetra});
  auto f = DataArray::create<double>("f", 4, 1);
  for (int i = 0; i < 4; ++i) f->set(i, 0, coords[i][0]);  // f = x
  grid->point_fields().add(f);
  auto mesh = isosurface(*grid, "f", 0.25);
  ASSERT_TRUE(mesh.ok());
  ASSERT_EQ(mesh->num_triangles(), 1u);  // one-vertex-separated case
  for (const auto& v : mesh->vertices) EXPECT_NEAR(v.x, 0.25, 1e-12);
}

TEST(ContourField, TwoVertexCaseEmitsQuad) {
  auto pts = DataArray::create<double>("pts", 4, 3);
  const double coords[4][3] = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  for (int i = 0; i < 4; ++i) {
    for (int c = 0; c < 3; ++c) pts->set(i, c, coords[i][c]);
  }
  auto grid = std::make_shared<data::UnstructuredGrid>(
      pts, std::vector<std::int64_t>{0, 1, 2, 3},
      std::vector<std::int64_t>{0, 4},
      std::vector<data::CellType>{data::CellType::kTetra});
  auto f = DataArray::create<double>("f", 4, 1);
  // Vertices 0 and 1 below, 2 and 3 above the isovalue.
  f->set(0, 0, 0.0);
  f->set(1, 0, 0.0);
  f->set(2, 0, 1.0);
  f->set(3, 0, 1.0);
  grid->point_fields().add(f);
  auto mesh = isosurface(*grid, "f", 0.5);
  ASSERT_TRUE(mesh.ok());
  EXPECT_EQ(mesh->num_triangles(), 2u);  // quad split into two triangles
}

TEST(TriangleMesh, WeldMergesSharedVertices) {
  // Two triangles sharing an edge, stored as 6 duplicated vertices.
  TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                   {1, 0, 0}, {1, 1, 0}, {0, 1, 0}};
  mesh.scalars = {1, 2, 3, 2, 4, 3};
  mesh.triangles = {{0, 1, 2}, {3, 4, 5}};
  mesh.weld();
  EXPECT_EQ(mesh.num_vertices(), 4u);
  EXPECT_EQ(mesh.num_triangles(), 2u);
  // Scalars follow their vertices.
  for (std::size_t i = 0; i < mesh.vertices.size(); ++i) {
    if (mesh.vertices[i].x == 1.0 && mesh.vertices[i].y == 1.0) {
      EXPECT_EQ(mesh.scalars[i], 4.0);
    }
  }
}

TEST(TriangleMesh, WeldDropsDegenerateTriangles) {
  TriangleMesh mesh;
  mesh.vertices = {{0, 0, 0}, {0, 0, 1e-12}, {1, 0, 0}};  // first two weld
  mesh.scalars = {0, 0, 0};
  mesh.triangles = {{0, 1, 2}};
  mesh.weld(1e-9);
  EXPECT_EQ(mesh.num_vertices(), 2u);
  EXPECT_TRUE(mesh.triangles.empty());
}

TEST(TriangleMesh, WeldShrinksMarchingTetOutput) {
  const Vec3 center{8, 8, 8};
  auto img = make_field(16, [&](const Vec3& p) { return (p - center).norm(); });
  auto mesh = isosurface(*img, "s", 5.0);
  ASSERT_TRUE(mesh.ok());
  const std::size_t before = mesh->num_vertices();
  const std::size_t tris_before = mesh->num_triangles();
  mesh->weld();
  EXPECT_LT(mesh->num_vertices(), before / 3);  // heavy duplication removed
  // Only zero-area slivers (coincident cut points) may be dropped.
  EXPECT_LE(mesh->num_triangles(), tris_before);
  EXPECT_GT(mesh->num_triangles(), 4 * tris_before / 5);
  // Geometry preserved: all vertices still on the sphere.
  for (const auto& v : mesh->vertices) {
    EXPECT_NEAR((v - center).norm(), 5.0, 0.15);
  }
}

TEST(TriangleMesh, WeldOnEmptyMeshIsNoop) {
  TriangleMesh mesh;
  mesh.weld();
  EXPECT_TRUE(mesh.empty());
}

TEST(TriangleMesh, AppendRebasesIndices) {
  TriangleMesh a;
  a.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  a.scalars = {0, 1, 2};
  a.triangles = {{0, 1, 2}};
  TriangleMesh b = a;
  a.append(b);
  ASSERT_EQ(a.num_triangles(), 2u);
  EXPECT_EQ(a.triangles[1][0], 3);
  EXPECT_EQ(a.num_vertices(), 6u);
  EXPECT_GT(a.size_bytes(), 0u);
}

TEST(Derived, VelocityMagnitude) {
  auto vel = DataArray::create<double>("v", 2, 3);
  vel->set(0, 0, 3.0);
  vel->set(0, 1, 4.0);
  vel->set(1, 2, -2.0);
  auto mag = velocity_magnitude(*vel, "vmag");
  ASSERT_TRUE(mag.ok());
  EXPECT_NEAR((*mag)->get(0), 5.0, 1e-12);
  EXPECT_NEAR((*mag)->get(1), 2.0, 1e-12);
}

TEST(Derived, VelocityMagnitudeRequiresThreeComponents) {
  auto bad = DataArray::create<double>("v", 2, 2);
  EXPECT_FALSE(velocity_magnitude(*bad, "m").ok());
}

TEST(Derived, VorticityOfRigidRotation) {
  // u = (-y, x, 0): curl = (0, 0, 2) everywhere, |curl| = 2.
  IndexBox box;
  box.cells = {8, 8, 2};
  ImageData grid(box, Vec3{-4, -4, 0}, Vec3{1, 1, 1});
  auto vel = DataArray::create<double>("v", grid.num_points(), 3);
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    const Vec3 p = grid.point(i);
    vel->set(i, 0, -p.y);
    vel->set(i, 1, p.x);
    vel->set(i, 2, 0.0);
  }
  auto w = vorticity_magnitude(grid, *vel, "wmag");
  ASSERT_TRUE(w.ok());
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_NEAR((*w)->get(i), 2.0, 1e-9) << "point " << i;
  }
}

TEST(Derived, VorticityOfUniformFlowIsZero) {
  IndexBox box;
  box.cells = {4, 4, 4};
  ImageData grid(box, Vec3{}, Vec3{1, 1, 1});
  auto vel = DataArray::create<double>("v", grid.num_points(), 3);
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    vel->set(i, 0, 1.0);
    vel->set(i, 1, 2.0);
    vel->set(i, 2, 3.0);
  }
  auto w = vorticity_magnitude(grid, *vel, "wmag");
  ASSERT_TRUE(w.ok());
  for (std::int64_t i = 0; i < grid.num_points(); ++i) {
    EXPECT_NEAR((*w)->get(i), 0.0, 1e-12);
  }
}

}  // namespace
}  // namespace insitu::analysis
