// Uniform spatial hash grid over node positions.
//
// Topology construction needs "all pairs within radio range" without the
// all-pairs O(N^2) scan: bucket nodes into square cells, then every pair
// within `radius` lies within ceil(radius / cell) cells of each other. The
// range query is canonical — for each node `a` in ascending id order, the
// in-range partners `b > a` come out ascending — so a caller drawing RNG
// values per pair consumes them in exactly the order the historical nested
// loop did (DESIGN.md §9).
//
// Buckets are stored CSR-style (offsets + one flat id array), built with a
// counting pass, so construction is O(N + cells) with two allocations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/topology/geometry.hpp"

namespace ldcf::topology {

class SpatialHashGrid {
 public:
  /// Bucket `positions` into cells of side >= `cell_size` meters (the cell
  /// actually used may be larger: the grid is capped at O(N) cells so a
  /// sparse deployment over a huge area cannot blow up memory). Throws
  /// InvalidArgument on an empty point set or a non-positive cell size.
  SpatialHashGrid(std::span<const Point2D> positions, double cell_size);

  [[nodiscard]] std::size_t num_cells() const {
    return cols_ * rows_;
  }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t rows() const { return rows_; }

  /// Cell index of a point (clamped into the grid).
  [[nodiscard]] std::size_t cell_of(const Point2D& p) const;

  /// Node ids bucketed in `cell`, ascending.
  [[nodiscard]] std::span<const NodeId> cell_nodes(std::size_t cell) const;

  /// A range-query hit: the partner's id and its distance() from the
  /// query node, computed once so the caller can reuse it.
  struct Partner {
    NodeId id = kNoNode;
    double dist = 0.0;
  };

  /// Replace `out` with every node `b > a` whose distance() from `a` is
  /// <= `radius`, in ascending id order — exactly the pairs an all-pairs
  /// scan would keep, for any radius (the scanned neighborhood widens to
  /// cover it).
  void partners_above(NodeId a, double radius,
                      std::vector<Partner>& out) const;

 private:
  std::span<const Point2D> positions_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double inv_cell_w_ = 0.0;  ///< 1 / effective cell width.
  double inv_cell_h_ = 0.0;
  std::size_t cols_ = 1;
  std::size_t rows_ = 1;
  std::vector<std::uint32_t> cell_offsets_;  ///< CSR offsets, cells + 1.
  std::vector<NodeId> cell_ids_;             ///< node ids, grouped by cell.
};

}  // namespace ldcf::topology
