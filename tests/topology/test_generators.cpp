#include "ldcf/topology/generators.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ldcf/common/error.hpp"

namespace ldcf::topology {
namespace {

TEST(Generators, GreenOrbsLikeMatchesPaperScale) {
  const Topology topo = make_greenorbs_like(1);
  EXPECT_EQ(topo.num_sensors(), 298u);  // the paper's trace size.
  EXPECT_EQ(topo.num_nodes(), 299u);
  // Multi-hop, not single-hop: the paper's deployment is a wide forest.
  EXPECT_GE(topo.eccentricity_from_source(), 3u);
  // Source reaches essentially everyone (99% rule).
  EXPECT_GE(topo.reachable_count(0), 296u);
}

TEST(Generators, GreenOrbsLikeIsDeterministicPerSeed) {
  const Topology a = make_greenorbs_like(7);
  const Topology b = make_greenorbs_like(7);
  ASSERT_EQ(a.num_links(), b.num_links());
  for (NodeId n = 0; n < a.num_nodes(); ++n) {
    EXPECT_EQ(a.position(n), b.position(n));
    const auto na = a.neighbors(n);
    const auto nb = b.neighbors(n);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].to, nb[i].to);
      EXPECT_DOUBLE_EQ(na[i].prr, nb[i].prr);
    }
  }
}

TEST(Generators, DifferentSeedsProduceDifferentTopologies) {
  const Topology a = make_greenorbs_like(1);
  const Topology b = make_greenorbs_like(2);
  bool any_diff = a.num_links() != b.num_links();
  for (NodeId n = 0; !any_diff && n < a.num_nodes(); ++n) {
    any_diff = !(a.position(n) == b.position(n));
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, GreenOrbsLikeHasHeterogeneousLinkQuality) {
  // The paper's analysis needs a broad PRR mix: some near-perfect links,
  // some lossy ones.
  const Topology topo = make_greenorbs_like(3);
  std::size_t good = 0;
  std::size_t poor = 0;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (const Link& l : topo.neighbors(n)) {
      ASSERT_GT(l.prr, 0.0);
      ASSERT_LE(l.prr, 1.0);
      if (l.prr > 0.9) ++good;
      if (l.prr < 0.5) ++poor;
    }
  }
  EXPECT_GT(good, 50u);
  EXPECT_GT(poor, 50u);
}

TEST(Generators, UniformHasRequestedSize) {
  GeneratorConfig config;
  config.num_sensors = 60;
  config.area_side_m = 150.0;
  config.seed = 5;
  const Topology topo = make_uniform(config);
  EXPECT_EQ(topo.num_sensors(), 60u);
  EXPECT_GT(topo.mean_degree(), 1.0);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_GE(topo.position(n).x, 0.0);
    EXPECT_LE(topo.position(n).x, config.area_side_m);
    EXPECT_GE(topo.position(n).y, 0.0);
    EXPECT_LE(topo.position(n).y, config.area_side_m);
  }
}

TEST(Generators, GridIsRegular) {
  GeneratorConfig config;
  config.num_sensors = 24;  // 25 nodes -> 5x5 grid.
  config.area_side_m = 200.0;
  const Topology topo = make_grid(config);
  EXPECT_EQ(topo.num_nodes(), 25u);
  // First row positions are evenly spaced.
  const double dx = topo.position(1).x - topo.position(0).x;
  EXPECT_NEAR(dx, 40.0, 1e-9);
  EXPECT_DOUBLE_EQ(topo.position(0).y, topo.position(4).y);
}

TEST(Generators, ConnectivityRequirementEnforced) {
  GeneratorConfig config;
  config.num_sensors = 40;
  config.area_side_m = 100000.0;  // hopeless: nodes far beyond radio range.
  config.seed = 5;
  // The error says what was tried and how close it came.
  try {
    (void)make_uniform(config);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string message = error.what();
    for (const char* part : {"32 attempts from seed 5", "reached at most ",
                             "% of N = 40 sensors", "need 99"}) {
      EXPECT_NE(message.find(part), std::string::npos) << message;
    }
  }
}

TEST(Generators, MakeNetworkBuildsEveryNamedGenerator) {
  for (const std::string& name : generator_names()) {
    const Topology topo = make_network(name, 120, 3);
    EXPECT_EQ(topo.num_sensors(), 120u) << name;
    EXPECT_GE(topo.reachable_fraction(), 0.99) << name;
  }
}

TEST(Generators, MakeNetworkRejectsAnUnknownGenerator) {
  try {
    (void)make_network("hexagonal", 120, 3);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "unknown generator 'hexagonal'");
  }
}

TEST(Generators, CompleteTopologyIsComplete) {
  const Topology topo = make_complete(10, 0.7);
  EXPECT_EQ(topo.num_nodes(), 11u);
  EXPECT_EQ(topo.num_links(), 11u * 10u);
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    for (NodeId b = 0; b < topo.num_nodes(); ++b) {
      if (a == b) continue;
      ASSERT_TRUE(topo.has_link(a, b));
      EXPECT_DOUBLE_EQ(topo.prr(a, b).value(), 0.7);
    }
  }
  EXPECT_THROW((void)make_complete(0, 0.7), InvalidArgument);
  EXPECT_THROW((void)make_complete(5, 0.0), InvalidArgument);
}

TEST(Generators, ClusteredPlacementStaysInArea) {
  ClusterConfig config;
  config.base.num_sensors = 80;
  config.base.seed = 9;
  const Topology topo = make_clustered(config);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    EXPECT_GE(topo.position(n).x, 0.0);
    EXPECT_LE(topo.position(n).x, config.base.area_side_m);
  }
}

TEST(Generators, SpatialHashMatchesLegacyAllPairsBitForBit) {
  // The grid-based builder must replay the historical nested-loop draw
  // sequence exactly: same positions, then the same RSSI/asymmetry draws
  // in ascending (a, b) pair order. Reconstruct that legacy algorithm here
  // and demand link-for-link, bit-for-bit equality.
  GeneratorConfig config;
  config.num_sensors = 120;
  config.area_side_m = 300.0;
  config.seed = 17;
  // Connected at the first attempt, so the seed is used verbatim.
  const Topology topo = make_uniform(config);

  Rng rng(config.seed);
  std::vector<Point2D> pts(config.num_sensors + 1);
  for (auto& p : pts) {
    p = Point2D{rng.uniform() * config.area_side_m,
                rng.uniform() * config.area_side_m};
  }
  const RadioModel& radio = config.radio;
  const double max_range = radio.range_at_prr(0.01) * 1.5;
  const auto n = static_cast<NodeId>(pts.size());
  std::vector<LinkRecord> links;
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      const double dist = distance(pts[a], pts[b]);
      if (dist > max_range) continue;
      const double rssi = radio.sample_rssi_dbm(dist, rng);
      const double asym = 0.5 * rng.normal();
      const double prr_ab = radio.prr_of_rssi(rssi + asym);
      const double prr_ba = radio.prr_of_rssi(rssi - asym);
      if (prr_ab >= radio.min_usable_prr) links.push_back({a, b, prr_ab});
      if (prr_ba >= radio.min_usable_prr) links.push_back({b, a, prr_ba});
    }
  }
  const Topology reference =
      Topology::from_links(std::move(pts), std::move(links));

  ASSERT_EQ(topo.num_links(), reference.num_links());
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_EQ(topo.position(v), reference.position(v));
    const auto got = topo.neighbors(v);
    const auto want = reference.neighbors(v);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].to, want[i].to);
      EXPECT_EQ(got[i].prr, want[i].prr);  // bit-identical, not just close.
    }
  }
}

TEST(Generators, PairKeyedLinksAreRecomputableInIsolation) {
  // In kPairKeyed mode every unordered pair draws from its own stream
  // seeded by (attempt seed, min, max) — so any link's PRR can be
  // recomputed knowing only the endpoints, independent of enumeration
  // order. That property is what makes the realization order-independent.
  GeneratorConfig config;
  config.num_sensors = 90;
  config.area_side_m = 260.0;
  config.seed = 31;
  config.link_rng = LinkRngMode::kPairKeyed;
  const Topology topo = make_uniform_disk(config);

  const RadioModel& radio = config.radio;
  const double max_range = radio.range_at_prr(0.01) * 1.5;
  std::size_t checked = 0;
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    for (const Link& l : topo.neighbors(a)) {
      if (l.to < a) continue;  // check each unordered pair from its low end.
      const double dist = distance(topo.position(a), topo.position(l.to));
      ASSERT_LE(dist, max_range);
      Rng pair_rng(pair_stream_seed(config.seed, a, l.to));
      const double rssi = radio.sample_rssi_dbm(dist, pair_rng);
      const double asym = 0.5 * pair_rng.normal();
      EXPECT_EQ(l.prr, radio.prr_of_rssi(rssi + asym));
      const auto back = topo.prr(l.to, a);
      if (back.has_value()) {
        EXPECT_EQ(back.value(), radio.prr_of_rssi(rssi - asym));
      }
      ++checked;
    }
  }
  EXPECT_GT(checked, 100u);  // the disk actually produced a real link set.
}

TEST(Generators, SequentialAndKeyedModesDifferButShareGeometry) {
  GeneratorConfig config;
  config.num_sensors = 70;
  config.area_side_m = 200.0;
  config.seed = 4;
  const Topology sequential = make_uniform(config);
  config.link_rng = LinkRngMode::kPairKeyed;
  const Topology keyed = make_uniform(config);
  ASSERT_EQ(sequential.num_nodes(), keyed.num_nodes());
  for (NodeId v = 0; v < sequential.num_nodes(); ++v) {
    EXPECT_EQ(sequential.position(v), keyed.position(v));  // placement shared.
  }
  // The two draw schemes are different random realizations of the same
  // radio model; identical link sets would mean the mode flag is dead.
  bool any_diff = sequential.num_links() != keyed.num_links();
  for (NodeId v = 0; !any_diff && v < sequential.num_nodes(); ++v) {
    const auto a = sequential.neighbors(v);
    const auto b = keyed.neighbors(v);
    any_diff = a.size() != b.size();
    for (std::size_t i = 0; !any_diff && i < a.size(); ++i) {
      any_diff = a[i].to != b[i].to || a[i].prr != b[i].prr;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Generators, UniformDiskCentersSourceAndStaysInDisk) {
  GeneratorConfig config;
  config.num_sensors = 150;
  config.area_side_m = 300.0;
  config.seed = 2;
  const Topology topo = make_uniform_disk(config);
  EXPECT_EQ(topo.num_sensors(), 150u);
  const double radius = 0.5 * config.area_side_m;
  const Point2D center{radius, radius};
  EXPECT_EQ(topo.position(0), center);
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    EXPECT_LE(distance(topo.position(v), center), radius + 1e-9);
  }
  EXPECT_GT(topo.mean_degree(), 1.0);
}

TEST(Generators, ScaledClusterConfigKeepsGreenOrbsDensity) {
  const ClusterConfig at_paper_size = scaled_cluster_config(298, 5);
  EXPECT_EQ(at_paper_size.base.num_sensors, 298u);
  EXPECT_NEAR(at_paper_size.base.area_side_m, 560.0, 1e-9);
  EXPECT_DOUBLE_EQ(at_paper_size.base.radio.path_loss_exponent, 3.3);

  // Density (sensors per unit area) is invariant across sizes.
  const ClusterConfig big = scaled_cluster_config(4 * 298, 5);
  EXPECT_NEAR(big.base.area_side_m, 2.0 * 560.0, 1e-9);
  EXPECT_EQ(big.num_clusters, (4u * 298u) / 17u);
  EXPECT_EQ(scaled_cluster_config(10, 1).num_clusters, 4u);  // floor.

  // A mid-size instance builds and keeps a GreenOrbs-like degree.
  ClusterConfig mid = scaled_cluster_config(600, 3);
  mid.base.link_rng = LinkRngMode::kPairKeyed;
  const Topology topo = make_clustered(mid);
  EXPECT_EQ(topo.num_sensors(), 600u);
  EXPECT_GT(topo.mean_degree(), 4.0);
  EXPECT_LT(topo.mean_degree(), 120.0);
}

class GeneratorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedSweep, GreenOrbsLikeAlwaysViable) {
  const Topology topo = make_greenorbs_like(GetParam());
  EXPECT_EQ(topo.num_sensors(), 298u);
  EXPECT_GE(static_cast<double>(topo.reachable_count(0)),
            0.99 * static_cast<double>(topo.num_nodes()));
  EXPECT_GT(topo.mean_degree(), 4.0);   // dense enough to flood.
  EXPECT_LT(topo.mean_degree(), 120.0); // but clearly multi-hop.
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

}  // namespace
}  // namespace ldcf::topology
