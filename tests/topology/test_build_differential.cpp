// Differential test of the one-pass CSR topology builder against the
// per-link builder it replaced. The Reference* functions below are
// verbatim copies of that builder (build_links, its candidate enumeration
// and generate_with_retries) plus the generators' placement lambdas, with
// its per-link inserts collected as records for Topology::from_links; every
// generated topology must match them bit for bit — positions, CSR offsets,
// every link's id and PRR bits, link count and fingerprint — in both link
// RNG modes, including a configuration that needs connectivity retries.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/serve/job.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/spatial_hash.hpp"

namespace ldcf::topology {
namespace {

// The replaced grid query: every id `b > a` from the 3x3 cell neighborhood,
// sorted, before any range test.
void reference_candidates_above(const SpatialHashGrid& grid,
                                std::span<const Point2D> positions, NodeId a,
                                std::vector<NodeId>& out) {
  out.clear();
  const std::size_t cols = grid.cols();
  const std::size_t rows = grid.rows();
  const std::size_t cell = grid.cell_of(positions[a]);
  const std::size_t cx = cell % cols;
  const std::size_t cy = cell / cols;
  for (std::size_t dy = cy == 0 ? 0 : cy - 1;
       dy <= std::min(cy + 1, rows - 1); ++dy) {
    for (std::size_t dx = cx == 0 ? 0 : cx - 1;
         dx <= std::min(cx + 1, cols - 1); ++dx) {
      for (const NodeId b : grid.cell_nodes(dy * cols + dx)) {
        if (b > a) out.push_back(b);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<LinkRecord> reference_build_links(
    std::span<const Point2D> positions, const RadioModel& radio, Rng& rng,
    LinkRngMode mode, std::uint64_t pair_base) {
  std::vector<LinkRecord> links;
  const double max_range = radio.range_at_prr(0.01) * 1.5;
  const auto n = static_cast<NodeId>(positions.size());
  const SpatialHashGrid grid(positions, max_range);
  const auto realize = [&](NodeId a, NodeId b, double dist, Rng& r) {
    const double rssi = radio.sample_rssi_dbm(dist, r);
    const double asym = 0.5 * r.normal();
    const double prr_ab = radio.prr_of_rssi(rssi + asym);
    const double prr_ba = radio.prr_of_rssi(rssi - asym);
    if (prr_ab >= radio.min_usable_prr) links.push_back({a, b, prr_ab});
    if (prr_ba >= radio.min_usable_prr) links.push_back({b, a, prr_ba});
  };
  std::vector<NodeId> candidates;
  for (NodeId a = 0; a < n; ++a) {
    reference_candidates_above(grid, positions, a, candidates);
    for (const NodeId b : candidates) {
      const double dist = distance(positions[a], positions[b]);
      if (dist > max_range) continue;
      if (mode == LinkRngMode::kPairKeyed) {
        Rng pair_rng(pair_stream_seed(pair_base, a, b));
        realize(a, b, dist, pair_rng);
      } else {
        realize(a, b, dist, rng);
      }
    }
  }
  return links;
}

double reference_reachable_fraction(const Topology& topo) {
  if (topo.num_nodes() <= 1) return 1.0;
  return static_cast<double>(topo.reachable_count(0) - 1) /
         static_cast<double>(topo.num_sensors());
}

/// `attempts_used`, when given, receives the index of the accepted attempt.
template <typename PlaceFn>
Topology reference_generate(const GeneratorConfig& config, PlaceFn&& place,
                            int* attempts_used = nullptr) {
  for (int attempt = 0; attempt < 32; ++attempt) {
    const std::uint64_t attempt_seed =
        config.seed +
        static_cast<std::uint64_t>(attempt) * std::uint64_t{0x9e37};
    Rng rng(attempt_seed);
    std::vector<Point2D> positions = place(rng);
    std::vector<LinkRecord> links = reference_build_links(
        positions, config.radio, rng, config.link_rng, attempt_seed);
    Topology topo =
        Topology::from_links(std::move(positions), std::move(links));
    if (reference_reachable_fraction(topo) >= 0.99) {
      if (attempts_used != nullptr) *attempts_used = attempt;
      return topo;
    }
  }
  throw InvalidArgument(
      "could not generate a sufficiently connected topology; enlarge the "
      "radio range or shrink the area");
}

// The generators' placement lambdas.
Topology reference_uniform(const GeneratorConfig& config,
                           int* attempts_used = nullptr) {
  return reference_generate(
      config,
      [&config](Rng& rng) {
        std::vector<Point2D> pts(config.num_sensors + 1);
        for (auto& p : pts) {
          p = Point2D{rng.uniform() * config.area_side_m,
                      rng.uniform() * config.area_side_m};
        }
        return pts;
      },
      attempts_used);
}

Topology reference_disk(const GeneratorConfig& config) {
  return reference_generate(config, [&config](Rng& rng) {
    const double radius = 0.5 * config.area_side_m;
    const Point2D center{radius, radius};
    std::vector<Point2D> pts(config.num_sensors + 1);
    pts[0] = center;
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const double r = radius * std::sqrt(rng.uniform());
      const double theta = 2.0 * std::numbers::pi * rng.uniform();
      pts[i] = Point2D{center.x + r * std::cos(theta),
                       center.y + r * std::sin(theta)};
    }
    return pts;
  });
}

Topology reference_grid(const GeneratorConfig& config) {
  const auto total = config.num_sensors + 1;
  const auto side = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(total))));
  const double step = config.area_side_m / static_cast<double>(side);
  return reference_generate(config, [&](Rng&) {
    std::vector<Point2D> pts;
    pts.reserve(total);
    for (std::uint32_t i = 0; i < total; ++i) {
      const double col = static_cast<double>(i % side);
      const double row = static_cast<double>(i / side);
      pts.push_back(Point2D{(col + 0.5) * step, (row + 0.5) * step});
    }
    return pts;
  });
}

Topology reference_clustered(const ClusterConfig& config) {
  const GeneratorConfig& base = config.base;
  return reference_generate(base, [&](Rng& rng) {
    std::vector<Point2D> centers(config.num_clusters);
    for (auto& c : centers) {
      c = Point2D{base.area_side_m * (0.15 + 0.7 * rng.uniform()),
                  base.area_side_m * (0.15 + 0.7 * rng.uniform())};
    }
    std::vector<Point2D> pts(base.num_sensors + 1);
    for (auto& p : pts) {
      const auto& c = centers[rng.below(centers.size())];
      const auto clamp = [&](double v) {
        return std::clamp(v, 0.0, base.area_side_m);
      };
      p = Point2D{clamp(c.x + config.cluster_sigma_m * rng.normal()),
                  clamp(c.y + config.cluster_sigma_m * rng.normal())};
    }
    return pts;
  });
}

void expect_bit_identical(const Topology& got, const Topology& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId n = 0; n < want.num_nodes(); ++n) {
    ASSERT_EQ(got.position(n), want.position(n)) << "node " << n;
  }
  ASSERT_EQ(got.num_links(), want.num_links());
  // CSR offsets are the running row sizes; equal rows imply equal offsets.
  std::size_t offset = 0;
  for (NodeId n = 0; n < want.num_nodes(); ++n) {
    const auto row = got.neighbors(n);
    const auto expected = want.neighbors(n);
    ASSERT_EQ(row.data() - got.neighbors(0).data(),
              static_cast<std::ptrdiff_t>(offset))
        << "row " << n;
    ASSERT_EQ(row.size(), expected.size()) << "row " << n;
    for (std::size_t i = 0; i < row.size(); ++i) {
      ASSERT_EQ(row[i].to, expected[i].to) << "row " << n << " link " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(row[i].prr),
                std::bit_cast<std::uint64_t>(expected[i].prr))
          << "row " << n << " link " << i;
    }
    offset += row.size();
  }
  EXPECT_EQ(got.fingerprint(), want.fingerprint());
}

struct Case {
  std::string generator;
  std::uint32_t sensors;
  LinkRngMode mode;
};

std::string label(const Case& c) {
  return c.generator + "_N" + std::to_string(c.sensors) +
         (c.mode == LinkRngMode::kPairKeyed ? "_keyed" : "_sequential");
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return label(info.param);
}

// Keeps the listed test names free of raw object bytes.
void PrintTo(const Case& c, std::ostream* os) { *os << label(c); }

class TopologyBuildDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(TopologyBuildDifferential, MatchesTheAddLinkBuilder) {
  const Case& c = GetParam();
  if (c.generator == "clustered") {
    ClusterConfig config = scaled_cluster_config(c.sensors, 7);
    config.base.link_rng = c.mode;
    expect_bit_identical(make_clustered(config), reference_clustered(config));
    return;
  }
  // Constant density: the default 298-sensor area scaled like sqrt(N).
  GeneratorConfig config;
  config.num_sensors = c.sensors;
  config.seed = 7;
  config.area_side_m = 350.0 * std::sqrt(c.sensors / 298.0);
  config.link_rng = c.mode;
  if (c.generator == "uniform") {
    expect_bit_identical(make_uniform(config), reference_uniform(config));
  } else if (c.generator == "grid") {
    expect_bit_identical(make_grid(config), reference_grid(config));
  } else {
    expect_bit_identical(make_uniform_disk(config), reference_disk(config));
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const LinkRngMode mode :
       {LinkRngMode::kSequential, LinkRngMode::kPairKeyed}) {
    for (const char* generator : {"clustered", "uniform", "grid", "disk"}) {
      for (const std::uint32_t sensors : {300u, 2000u}) {
        cases.push_back(Case{generator, sensors, mode});
      }
    }
    cases.push_back(Case{"clustered", 10000, mode});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Generators, TopologyBuildDifferential,
                         ::testing::ValuesIn(all_cases()), case_name);

TEST_F(TopologyBuildDifferential, MatchesAcrossConnectivityRetries) {
  // A sparse square where the first attempts leave sensors unreachable.
  GeneratorConfig config;
  config.num_sensors = 60;
  config.area_side_m = 450.0;
  config.seed = 1;
  for (const LinkRngMode mode :
       {LinkRngMode::kSequential, LinkRngMode::kPairKeyed}) {
    config.link_rng = mode;
    int attempts_used = 0;
    const Topology want = reference_uniform(config, &attempts_used);
    EXPECT_GT(attempts_used, 0);
    expect_bit_identical(make_uniform(config), want);
  }
  // Far too sparse: every attempt fails, in both builders.
  config.area_side_m = 5000.0;
  EXPECT_THROW((void)reference_uniform(config), InvalidArgument);
  EXPECT_THROW((void)make_uniform(config), InvalidArgument);
}

TEST_F(TopologyBuildDifferential, ServerTopologiesArePinned) {
  // flood_server's cold-submit path at 2k and 10k sensors; the values were
  // recorded from the per-link builder this one replaced.
  serve::JobSpec spec;
  spec.sensors = 2000;
  const Topology small = serve::build_topology(spec);
  EXPECT_EQ(small.num_links(), 37057u);
  EXPECT_EQ(small.fingerprint(), 10574098086726501413ull);
  spec.sensors = 10000;
  const Topology large = serve::build_topology(spec);
  EXPECT_EQ(large.num_links(), 201254u);
  EXPECT_EQ(large.fingerprint(), 8687296658798603410ull);
}

}  // namespace
}  // namespace ldcf::topology
