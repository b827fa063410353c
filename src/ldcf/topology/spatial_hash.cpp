#include "ldcf/topology/spatial_hash.hpp"

#include <algorithm>
#include <cmath>

#include "ldcf/common/error.hpp"

namespace ldcf::topology {

namespace {

/// Cells per axis: as many as the span allows at `cell_size` granularity,
/// but never more than ~2*sqrt(N) per axis (so the grid stays O(N) cells
/// even when the deployment area dwarfs the radio range). Capping only ever
/// *widens* cells, which only shrinks the neighborhood a range query scans.
std::size_t axis_cells(double span, double cell_size, std::size_t n) {
  const auto cap = static_cast<std::size_t>(
      std::ceil(2.0 * std::sqrt(static_cast<double>(n)))) + 1;
  if (!(span > 0.0)) return 1;
  const double fit = std::floor(span / cell_size);
  if (fit <= 1.0) return 1;
  return std::min(static_cast<std::size_t>(fit), cap);
}

/// Cells to scan on each side of a query cell along one axis so that every
/// point within `radius` is covered. A coordinate `radius` away lands at
/// most floor(radius * inv) + 1 cells over; the relative slack absorbs the
/// rounding of the scaled coordinates when radius * inv is an integer.
std::size_t reach(double radius, double inv_cell, std::size_t cells) {
  if (cells <= 1) return 0;
  const double scaled = radius * inv_cell * (1.0 + 1e-9);
  if (!(scaled < static_cast<double>(cells))) return cells - 1;
  return std::min(cells - 1, static_cast<std::size_t>(scaled) + 1);
}

}  // namespace

SpatialHashGrid::SpatialHashGrid(std::span<const Point2D> positions,
                                 double cell_size)
    : positions_(positions) {
  LDCF_REQUIRE(!positions.empty(), "spatial hash needs at least one point");
  LDCF_REQUIRE(cell_size > 0.0, "cell size must be positive");

  double max_x = positions[0].x;
  double max_y = positions[0].y;
  min_x_ = positions[0].x;
  min_y_ = positions[0].y;
  for (const Point2D& p : positions) {
    min_x_ = std::min(min_x_, p.x);
    min_y_ = std::min(min_y_, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  cols_ = axis_cells(max_x - min_x_, cell_size, positions.size());
  rows_ = axis_cells(max_y - min_y_, cell_size, positions.size());
  inv_cell_w_ = cols_ > 1 ? static_cast<double>(cols_) / (max_x - min_x_) : 0.0;
  inv_cell_h_ = rows_ > 1 ? static_cast<double>(rows_) / (max_y - min_y_) : 0.0;

  // Counting sort into CSR buckets; iterating nodes in ascending id order
  // keeps every bucket ascending.
  cell_offsets_.assign(num_cells() + 1, 0);
  for (const Point2D& p : positions) {
    ++cell_offsets_[cell_of(p) + 1];
  }
  for (std::size_t c = 1; c < cell_offsets_.size(); ++c) {
    cell_offsets_[c] += cell_offsets_[c - 1];
  }
  cell_ids_.resize(positions.size());
  std::vector<std::uint32_t> cursor(cell_offsets_.begin(),
                                    cell_offsets_.end() - 1);
  for (NodeId n = 0; n < positions.size(); ++n) {
    cell_ids_[cursor[cell_of(positions[n])]++] = n;
  }
}

std::size_t SpatialHashGrid::cell_of(const Point2D& p) const {
  auto axis = [](double v, double lo, double inv, std::size_t cells) {
    if (cells <= 1) return std::size_t{0};
    const double scaled = (v - lo) * inv;
    if (scaled <= 0.0) return std::size_t{0};
    return std::min(cells - 1, static_cast<std::size_t>(scaled));
  };
  return axis(p.y, min_y_, inv_cell_h_, rows_) * cols_ +
         axis(p.x, min_x_, inv_cell_w_, cols_);
}

std::span<const NodeId> SpatialHashGrid::cell_nodes(std::size_t cell) const {
  LDCF_REQUIRE(cell < num_cells(), "cell index out of range");
  return {cell_ids_.data() + cell_offsets_[cell],
          cell_ids_.data() + cell_offsets_[cell + 1]};
}

void SpatialHashGrid::partners_above(NodeId a, double radius,
                                     std::vector<Partner>& out) const {
  LDCF_REQUIRE(a < positions_.size(), "node id out of range");
  LDCF_REQUIRE(radius >= 0.0, "radius must be non-negative");
  out.clear();
  const Point2D& origin = positions_[a];
  const std::size_t cell = cell_of(origin);
  const std::size_t cx = cell % cols_;
  const std::size_t cy = cell / cols_;
  const std::size_t reach_x = reach(radius, inv_cell_w_, cols_);
  const std::size_t reach_y = reach(radius, inv_cell_h_, rows_);
  for (std::size_t y = cy - std::min(cy, reach_y);
       y <= std::min(cy + reach_y, rows_ - 1); ++y) {
    for (std::size_t x = cx - std::min(cx, reach_x);
         x <= std::min(cx + reach_x, cols_ - 1); ++x) {
      const std::size_t c = y * cols_ + x;
      for (std::uint32_t i = cell_offsets_[c]; i < cell_offsets_[c + 1];
           ++i) {
        const NodeId b = cell_ids_[i];
        if (b <= a) continue;
        const double dist = distance(origin, positions_[b]);
        if (dist <= radius) out.push_back(Partner{b, dist});
      }
    }
  }
  // Buckets are ascending but their concatenation is not; canonical order
  // is what lets the generators replay the historical RNG draw sequence.
  // The survivors are few and mostly in runs, so insertion sort wins.
  for (std::size_t i = 1; i < out.size(); ++i) {
    const Partner hit = out[i];
    std::size_t j = i;
    for (; j > 0 && out[j - 1].id > hit.id; --j) out[j] = out[j - 1];
    out[j] = hit;
  }
}

}  // namespace ldcf::topology
