#include "ldcf/topology/spatial_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/topology/geometry.hpp"

namespace ldcf::topology {
namespace {

std::vector<Point2D> random_points(std::size_t count, double side,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point2D> pts(count);
  for (auto& p : pts) {
    p = Point2D{rng.uniform() * side, rng.uniform() * side};
  }
  return pts;
}

using Partner = SpatialHashGrid::Partner;

/// Reference enumeration: an all-pairs scan over partners above `a` within
/// `radius`, using the same distance() the range query reports.
std::vector<Partner> brute_partners_above(const std::vector<Point2D>& pts,
                                          NodeId a, double radius) {
  std::vector<Partner> out;
  for (NodeId b = a + 1; b < pts.size(); ++b) {
    const double dist = distance(pts[a], pts[b]);
    if (dist <= radius) out.push_back(Partner{b, dist});
  }
  return out;
}

/// The range query must return exactly the brute-force list: same ids in
/// the same (ascending) order, bit-equal distances.
void expect_query_matches_brute_force(const std::vector<Point2D>& pts,
                                      const SpatialHashGrid& grid,
                                      double radius) {
  std::vector<Partner> hits;
  for (NodeId a = 0; a < pts.size(); ++a) {
    grid.partners_above(a, radius, hits);
    const std::vector<Partner> expected = brute_partners_above(pts, a, radius);
    ASSERT_EQ(hits.size(), expected.size()) << "node " << a;
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].id, expected[i].id) << "node " << a << " hit " << i;
      EXPECT_EQ(hits[i].dist, expected[i].dist)
          << "node " << a << " hit " << i;
    }
  }
}

TEST(SpatialHash, RejectsBadInputs) {
  const std::vector<Point2D> pts = {{0.0, 0.0}};
  EXPECT_THROW(SpatialHashGrid(std::span<const Point2D>{}, 10.0),
               InvalidArgument);
  EXPECT_THROW(SpatialHashGrid(pts, 0.0), InvalidArgument);
  EXPECT_THROW(SpatialHashGrid(pts, -1.0), InvalidArgument);
}

TEST(SpatialHash, EveryNodeLandsInExactlyOneCell) {
  const auto pts = random_points(500, 300.0, 11);
  const SpatialHashGrid grid(pts, 40.0);
  std::vector<std::size_t> seen(pts.size(), 0);
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    for (const NodeId n : grid.cell_nodes(c)) {
      ASSERT_LT(n, pts.size());
      ++seen[n];
      EXPECT_EQ(grid.cell_of(pts[n]), c);
    }
  }
  for (const std::size_t count : seen) EXPECT_EQ(count, 1u);
}

TEST(SpatialHash, BucketsAreAscending) {
  const auto pts = random_points(400, 250.0, 3);
  const SpatialHashGrid grid(pts, 30.0);
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    const auto nodes = grid.cell_nodes(c);
    EXPECT_TRUE(std::is_sorted(nodes.begin(), nodes.end()));
  }
}

TEST(SpatialHash, CandidatesAreSupersetOfInRangePartners) {
  // The range query is exact, not just a superset: at the construction
  // cell size, and at radii smaller and larger than a cell.
  const double radius = 35.0;
  const auto pts = random_points(600, 400.0, 7);
  const SpatialHashGrid grid(pts, radius);
  expect_query_matches_brute_force(pts, grid, radius);
  expect_query_matches_brute_force(pts, grid, 0.5 * radius);
  expect_query_matches_brute_force(pts, grid, 2.5 * radius);
}

TEST(SpatialHash, RangeQueryWithHalfRangeCells) {
  // Cells narrower than the radius widen the scanned neighborhood.
  const double radius = 40.0;
  const auto pts = random_points(800, 500.0, 29);
  const SpatialHashGrid grid(pts, 0.5 * radius);
  expect_query_matches_brute_force(pts, grid, radius);
}

TEST(SpatialHash, RangeQueryOnASingleCell) {
  const auto pts = random_points(50, 10.0, 31);
  const SpatialHashGrid grid(pts, 100.0);
  EXPECT_EQ(grid.num_cells(), 1u);
  expect_query_matches_brute_force(pts, grid, 4.0);
  expect_query_matches_brute_force(pts, grid, 100.0);
}

TEST(SpatialHash, RangeQueryOnCellBorders) {
  // A lattice whose points sit exactly on cell borders, queried at radii
  // that are exact multiples of the spacing: pairs exactly `radius` apart
  // are in range and must not be lost to the rounding of the scaled
  // coordinates.
  std::vector<Point2D> lattice;
  for (int y = 0; y <= 12; ++y) {
    for (int x = 0; x <= 12; ++x) {
      lattice.push_back(
          Point2D{static_cast<double>(x) * 10.0, static_cast<double>(y) * 10.0});
    }
  }
  for (const double cell : {10.0, 20.0, 5.0}) {
    const SpatialHashGrid grid(lattice, cell);
    for (const double radius : {10.0, 20.0, 30.0}) {
      expect_query_matches_brute_force(lattice, grid, radius);
    }
  }
}

TEST(SpatialHash, RangeQueryRejectsBadArguments) {
  const auto pts = random_points(10, 50.0, 37);
  const SpatialHashGrid grid(pts, 10.0);
  std::vector<Partner> hits;
  EXPECT_THROW(grid.partners_above(10, 5.0, hits), InvalidArgument);
  EXPECT_THROW(grid.partners_above(0, -1.0, hits), InvalidArgument);
}

TEST(SpatialHash, SupersetSurvivesTheCellCountCap) {
  // A huge sparse area forces the per-axis O(sqrt(N)) cell cap to engage
  // (cells get wider than requested); the query must stay exact.
  const double radius = 5.0;
  const auto pts = random_points(64, 10'000.0, 19);
  const SpatialHashGrid grid(pts, radius);
  EXPECT_LE(grid.cols(), 2u * 8u + 1u);
  EXPECT_LE(grid.rows(), 2u * 8u + 1u);
  expect_query_matches_brute_force(pts, grid, radius);
  expect_query_matches_brute_force(pts, grid, 800.0);
}

TEST(SpatialHash, HandlesDegenerateGeometry) {
  // All points coincident: one cell, everyone is everyone's partner.
  const std::vector<Point2D> same(10, Point2D{5.0, 5.0});
  const SpatialHashGrid grid(same, 1.0);
  EXPECT_EQ(grid.num_cells(), 1u);
  std::vector<Partner> hits;
  grid.partners_above(0, 0.0, hits);
  EXPECT_EQ(hits.size(), 9u);

  // Collinear points: a 1-row grid still covers neighbors.
  std::vector<Point2D> line;
  for (int i = 0; i < 20; ++i) {
    line.push_back(Point2D{static_cast<double>(i) * 10.0, 0.0});
  }
  const SpatialHashGrid line_grid(line, 15.0);
  expect_query_matches_brute_force(line, line_grid, 15.0);
}

TEST(SpatialHash, CandidateUnionCoversEveryPairExactlyOnce) {
  // Summing partners_above over all nodes lists each in-range unordered
  // pair exactly once (b > a filter, no duplicates).
  const double radius = 25.0;
  const auto pts = random_points(200, 120.0, 23);
  const SpatialHashGrid grid(pts, radius);
  std::vector<Partner> hits;
  std::size_t listed = 0;
  std::size_t in_range = 0;
  for (NodeId a = 0; a < pts.size(); ++a) {
    grid.partners_above(a, radius, hits);
    listed += hits.size();
    in_range += brute_partners_above(pts, a, radius).size();
    EXPECT_TRUE(std::adjacent_find(hits.begin(), hits.end(),
                                   [](const Partner& x, const Partner& y) {
                                     return x.id == y.id;
                                   }) == hits.end());
  }
  EXPECT_EQ(listed, in_range);
}

}  // namespace
}  // namespace ldcf::topology
