#include "analysis/contour.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "data/unstructured_grid.hpp"
#include "exec/task_pool.hpp"
#include "kernels/kernels.hpp"

namespace insitu::analysis {

namespace {

struct TetVert {
  data::Vec3 p;
  double f = 0.0;     // contour field value
  double attr = 0.0;  // attribute carried to the output vertex
};

/// Linear interpolation of the iso-crossing on edge (a, b).
TetVert edge_cut(const TetVert& a, const TetVert& b, double iso) {
  const double denom = b.f - a.f;
  const double t = denom != 0.0 ? (iso - a.f) / denom : 0.5;
  TetVert v;
  v.p.x = kernels::lerp1(a.p.x, b.p.x, t);
  v.p.y = kernels::lerp1(a.p.y, b.p.y, t);
  v.p.z = kernels::lerp1(a.p.z, b.p.z, t);
  v.f = iso;
  v.attr = kernels::lerp1(a.attr, b.attr, t);
  return v;
}

void emit_triangle(const TetVert& a, const TetVert& b, const TetVert& c,
                   TriangleMesh& out) {
  const auto base = static_cast<std::int32_t>(out.vertices.size());
  out.vertices.push_back(a.p);
  out.vertices.push_back(b.p);
  out.vertices.push_back(c.p);
  out.scalars.push_back(a.attr);
  out.scalars.push_back(b.attr);
  out.scalars.push_back(c.attr);
  out.triangles.push_back({base, base + 1, base + 2});
}

/// Marching tetrahedra on one tet. Vertices with f >= iso are "inside".
void contour_tet(const std::array<TetVert, 4>& v, double iso,
                 TriangleMesh& out) {
  int mask = 0;
  for (int i = 0; i < 4; ++i) {
    if (v[static_cast<std::size_t>(i)].f >= iso) mask |= 1 << i;
  }
  if (mask == 0 || mask == 0xF) return;

  // Reduce the 14 cut cases to "one vertex separated" and "two vs two".
  const auto one_vertex = [&](int lone) {
    // Triangle across the three edges incident to `lone`.
    const auto li = static_cast<std::size_t>(lone);
    std::array<std::size_t, 3> others{};
    int n = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != li) others[static_cast<std::size_t>(n++)] = i;
    }
    emit_triangle(edge_cut(v[li], v[others[0]], iso),
                  edge_cut(v[li], v[others[1]], iso),
                  edge_cut(v[li], v[others[2]], iso), out);
  };
  const auto two_vertices = [&](int a, int b) {
    // Quad across the four edges between {a,b} and the other pair {c,d}.
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    std::array<std::size_t, 2> cd{};
    int n = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (i != ai && i != bi) cd[static_cast<std::size_t>(n++)] = i;
    }
    const TetVert e_ac = edge_cut(v[ai], v[cd[0]], iso);
    const TetVert e_ad = edge_cut(v[ai], v[cd[1]], iso);
    const TetVert e_bd = edge_cut(v[bi], v[cd[1]], iso);
    const TetVert e_bc = edge_cut(v[bi], v[cd[0]], iso);
    emit_triangle(e_ac, e_ad, e_bd, out);
    emit_triangle(e_ac, e_bd, e_bc, out);
  };

  switch (mask) {
    case 0x1: case 0xE: one_vertex(0); break;
    case 0x2: case 0xD: one_vertex(1); break;
    case 0x4: case 0xB: one_vertex(2); break;
    case 0x8: case 0x7: one_vertex(3); break;
    case 0x3: case 0xC: two_vertices(0, 1); break;
    case 0x5: case 0xA: two_vertices(0, 2); break;
    case 0x9: case 0x6: two_vertices(0, 3); break;
    default: break;
  }
}

// 6-tet decomposition of a VTK-ordered hexahedron around diagonal 0-6.
constexpr std::array<std::array<int, 4>, 6> kHexTets = {{
    {0, 1, 2, 6},
    {0, 2, 3, 6},
    {0, 3, 7, 6},
    {0, 7, 4, 6},
    {0, 4, 5, 6},
    {0, 5, 1, 6},
}};

/// Contours cells cell_at(0), ..., cell_at(ncells - 1), in that order, at
/// {field(point) = isovalue}. The whole-dataset contour and the plane-local
/// slice share this loop, so both emit identical triangles per cell.
template <typename CellAt, typename Field>
StatusOr<TriangleMesh> contour_cells(const data::DataSet& dataset,
                                     std::int64_t ncells, CellAt cell_at,
                                     Field field, double isovalue,
                                     const data::DataArray& attribute_field) {
  const bool unstructured =
      dataset.kind() == data::DataSetKind::kUnstructuredGrid;
  const auto* ugrid =
      unstructured ? static_cast<const data::UnstructuredGrid*>(&dataset)
                   : nullptr;

  auto load = [&](std::int64_t point_id) {
    TetVert v;
    v.p = dataset.point(point_id);
    v.f = field(point_id);
    v.attr = attribute_field.get(point_id);
    return v;
  };

  // Each parallel_for chunk contours its cell range into a private mesh;
  // concatenating the parts in chunk order reproduces the serial
  // cell-order output exactly, for any thread count.
  constexpr std::int64_t kCellGrain = 1024;
  const std::int64_t nchunks =
      exec::parallel_chunk_count(0, ncells, kCellGrain);
  std::vector<TriangleMesh> parts(static_cast<std::size_t>(nchunks));
  std::vector<Status> part_status(static_cast<std::size_t>(nchunks));
  exec::parallel_for(0, ncells, kCellGrain, [&](std::int64_t lo,
                                                std::int64_t hi) {
    const auto chunk = static_cast<std::size_t>(lo / kCellGrain);
    TriangleMesh& part = parts[chunk];
    std::vector<std::int64_t> cell;
    for (std::int64_t index = lo; index < hi; ++index) {
      const std::int64_t c = cell_at(index);
      if (dataset.is_ghost_cell(c)) continue;
      dataset.cell_points(c, cell);
      if (unstructured && ugrid->cell_type(c) == data::CellType::kTetra) {
        contour_tet({load(cell[0]), load(cell[1]), load(cell[2]),
                     load(cell[3])},
                    isovalue, part);
        continue;
      }
      if (cell.size() == 8) {  // hexahedron (implicit or explicit)
        std::array<TetVert, 8> corners;
        for (std::size_t i = 0; i < 8; ++i) corners[i] = load(cell[i]);
        // Cheap reject: all corners on one side.
        bool any_lo = false, any_hi = false;
        for (const auto& corner : corners) {
          (corner.f >= isovalue ? any_hi : any_lo) = true;
        }
        if (!(any_lo && any_hi)) continue;
        for (const auto& tet : kHexTets) {
          contour_tet({corners[static_cast<std::size_t>(tet[0])],
                       corners[static_cast<std::size_t>(tet[1])],
                       corners[static_cast<std::size_t>(tet[2])],
                       corners[static_cast<std::size_t>(tet[3])]},
                      isovalue, part);
        }
        continue;
      }
      part_status[chunk] = Status::Unimplemented(
          "contour_field: unsupported cell with " +
          std::to_string(cell.size()) + " points");
      return;
    }
  });

  TriangleMesh out;
  for (std::size_t chunk = 0; chunk < parts.size(); ++chunk) {
    INSITU_RETURN_IF_ERROR(part_status[chunk]);
    const TriangleMesh& part = parts[chunk];
    const auto base = static_cast<std::int32_t>(out.vertices.size());
    out.vertices.insert(out.vertices.end(), part.vertices.begin(),
                        part.vertices.end());
    out.scalars.insert(out.scalars.end(), part.scalars.begin(),
                       part.scalars.end());
    out.triangles.reserve(out.triangles.size() + part.triangles.size());
    for (const auto& tri : part.triangles) {
      out.triangles.push_back({tri[0] + base, tri[1] + base, tri[2] + base});
    }
  }
  return out;
}

/// Signed distances of points point_at(0), ..., point_at(n - 1) of
/// `dataset` to the plane, through the plane_distance kernel: coordinates
/// are gathered into disjoint chunk slices of SoA scratch first.
template <typename PointAt>
void plane_distances(const data::DataSet& dataset, std::int64_t n,
                     PointAt point_at, data::Vec3 origin, data::Vec3 normal,
                     double* dist) {
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::vector<double> ys(static_cast<std::size_t>(n));
  std::vector<double> zs(static_cast<std::size_t>(n));
  exec::parallel_for(0, n, 8192, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      const data::Vec3 p = dataset.point(point_at(i));
      xs[static_cast<std::size_t>(i)] = p.x;
      ys[static_cast<std::size_t>(i)] = p.y;
      zs[static_cast<std::size_t>(i)] = p.z;
    }
    kernels::plane_distance(xs.data() + lo, ys.data() + lo, zs.data() + lo,
                            hi - lo, origin.x, origin.y, origin.z, normal.x,
                            normal.y, normal.z, dist + lo);
  });
}

/// Axis-aligned slice of an ImageData that visits only the cells the plane
/// can cut. Point coordinates along `axis` are nondecreasing in the layer
/// index (positive spacing), and with finite coordinates the signed
/// distance has one sign per point layer. So the only cells with corners
/// on both sides lie in the layer where the distance changes sign: the
/// estimated layer, +-1 for rounding. The distances at the bounding point
/// layers confirm that no cell outside can straddle; if they do not, the
/// caller falls back to the full scan. Returns nullopt in that case and
/// when the input is not suitable (non-positive spacing, non-finite
/// coordinates or value, `values` not per-point), leaving errors to the
/// full scan.
std::optional<StatusOr<TriangleMesh>> slice_image_layers(
    const data::ImageData& img, const data::DataArray& values, int axis,
    double value, data::Vec3 origin, data::Vec3 normal) {
  const auto along = [axis](data::Vec3 v) {
    return axis == 0 ? v.x : axis == 1 ? v.y : v.z;
  };
  const auto finite = [](data::Vec3 v) {
    return std::isfinite(v.x) && std::isfinite(v.y) && std::isfinite(v.z);
  };
  const double spacing = along(img.spacing());
  const data::Bounds b = img.bounds();
  const std::int64_t layers = img.cell_dim(axis);
  if (img.num_cells() == 0 || values.num_tuples() != img.num_points() ||
      !(spacing > 0.0) || !std::isfinite(value) || !finite(b.lo) ||
      !finite(b.hi)) {
    return std::nullopt;
  }
  const double estimate = std::clamp(
      std::floor((value - along(img.origin())) / spacing) -
          static_cast<double>(img.box().offset[static_cast<std::size_t>(axis)]),
      -1.0, static_cast<double>(layers));
  const auto layer = static_cast<std::int64_t>(estimate);
  const std::int64_t layer_lo = std::max<std::int64_t>(layer - 1, 0);
  const std::int64_t layer_hi = std::min<std::int64_t>(layer + 1, layers - 1);

  // Strides of the axis in point and cell ids, and of the next axis up.
  std::int64_t point_inner = 1, cell_inner = 1;
  for (int d = 0; d < axis; ++d) {
    point_inner *= img.point_dim(d);
    cell_inner *= img.cell_dim(d);
  }
  const std::int64_t point_outer = point_inner * img.point_dim(axis);
  const std::int64_t cell_outer = cell_inner * layers;

  // Point layers layer_lo .. layer_hi + 1, packed in point-id order.
  const std::int64_t point_layers = layer_hi - layer_lo + 2;
  const std::int64_t packed_run = point_inner * point_layers;
  const std::int64_t npacked = packed_run * (img.num_points() / point_outer);
  const auto point_at = [&](std::int64_t q) {
    return q % packed_run + layer_lo * point_inner +
           q / packed_run * point_outer;
  };
  std::vector<double> packed(static_cast<std::size_t>(npacked));
  plane_distances(img, npacked, point_at, origin, normal, packed.data());

  // Layer layer_lo must lie below the plane and layer_hi + 1 on or above
  // it, unless they are the first / last point layer.
  const bool below_ok = layer_lo == 0 || packed.front() < 0.0;
  const bool above_ok =
      layer_hi == layers - 1 ||
      packed[static_cast<std::size_t>(point_inner * (point_layers - 1))] >=
          0.0;
  if (!below_ok || !above_ok) return std::nullopt;

  // The full scan's per-point array, so buffer-pool and memory accounting
  // stay those of the full scan; only the layers above are filled.
  data::DataArrayPtr distance =
      data::DataArray::create<double>("plane_distance", img.num_points(), 1);
  double* dist = distance->component_base<double>(0);
  for (std::int64_t q = 0; q < npacked; ++q) {
    dist[point_at(q)] = packed[static_cast<std::size_t>(q)];
  }
  const std::int64_t cell_run = cell_inner * (layer_hi - layer_lo + 1);
  const std::int64_t ncells = cell_run * (img.num_cells() / cell_outer);
  return contour_cells(
      img, ncells,
      [&](std::int64_t index) {
        return index % cell_run + layer_lo * cell_inner +
               index / cell_run * cell_outer;
      },
      [&](std::int64_t p) { return dist[p]; }, 0.0, values);
}

}  // namespace

StatusOr<TriangleMesh> contour_field(const data::DataSet& dataset,
                                     const data::DataArray& contour_field,
                                     double isovalue,
                                     const data::DataArray& attribute_field) {
  if (contour_field.num_tuples() != dataset.num_points() ||
      attribute_field.num_tuples() != dataset.num_points()) {
    return Status::InvalidArgument(
        "contour_field: arrays must be per-point over the dataset");
  }
  return contour_cells(
      dataset, dataset.num_cells(), [](std::int64_t c) { return c; },
      [&](std::int64_t p) { return contour_field.get(p); }, isovalue,
      attribute_field);
}

StatusOr<TriangleMesh> isosurface(const data::DataSet& dataset,
                                  const std::string& array, double isovalue) {
  INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                          dataset.point_fields().require(array));
  return contour_field(dataset, *values, isovalue, *values);
}

StatusOr<TriangleMesh> slice_plane(const data::DataSet& dataset,
                                   const std::string& array,
                                   data::Vec3 origin, data::Vec3 normal) {
  INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                          dataset.point_fields().require(array));
  const data::Vec3 n = normal.normalized();
  const std::int64_t npoints = dataset.num_points();
  data::DataArrayPtr distance =
      data::DataArray::create<double>("plane_distance", npoints, 1);
  plane_distances(
      dataset, npoints, [](std::int64_t i) { return i; }, origin, n,
      distance->component_base<double>(0));
  return contour_field(dataset, *distance, 0.0, *values);
}

StatusOr<TriangleMesh> slice_axis(const data::DataSet& dataset,
                                  const std::string& array, int axis,
                                  double value) {
  if (axis < 0 || axis > 2) {
    return Status::InvalidArgument("slice_axis: axis must be 0, 1 or 2");
  }
  data::Vec3 origin, normal;
  if (axis == 0) {
    origin = {value, 0, 0};
    normal = {1, 0, 0};
  } else if (axis == 1) {
    origin = {0, value, 0};
    normal = {0, 1, 0};
  } else {
    origin = {0, 0, value};
    normal = {0, 0, 1};
  }
  if (dataset.kind() == data::DataSetKind::kImageData) {
    INSITU_ASSIGN_OR_RETURN(data::DataArrayPtr values,
                            dataset.point_fields().require(array));
    if (auto mesh = slice_image_layers(
            static_cast<const data::ImageData&>(dataset), *values, axis,
            value, origin, normal.normalized())) {
      return *std::move(mesh);
    }
  }
  return slice_plane(dataset, array, origin, normal);
}

}  // namespace insitu::analysis
