#include "ldcf/topology/generators.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <numbers>
#include <sstream>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/topology/spatial_hash.hpp"

namespace ldcf::topology {

namespace {

/// Wire up every pair within plausible radio range: sample a persistent
/// shadowing offset per unordered pair, derive directional PRRs (slightly
/// asymmetric, as measured traces are), keep links above the usable floor.
/// Returns the finished topology (DESIGN.md §9).
///
/// In-range pairs come from a spatial hash grid range query rather than an
/// all-pairs scan. In kSequential mode its canonical ascending-(a, b)
/// enumeration consumes `rng` in exactly the order the historical nested
/// loop did, so every pinned fingerprint is preserved; in kPairKeyed mode
/// each pair gets its own counter-based stream seeded from (pair_base, min,
/// max), making the realization independent of visit order entirely.
///
/// The same canonical order lets every link simply append to its row: row
/// a receives its links to lower ids (while those ids are visited, in
/// ascending order) before its links to higher ids (while a is visited,
/// ascending), so each row is already sorted and the rows flatten straight
/// into the CSR.
Topology build_links(std::vector<Point2D> positions, const RadioModel& radio,
                     Rng& rng, LinkRngMode mode, std::uint64_t pair_base) {
  const double max_range = radio.range_at_prr(0.01) * 1.5;
  const auto n = static_cast<NodeId>(positions.size());
  const SpatialHashGrid grid(positions, max_range);
  // The logistic is monotone, so an RSSI below the one that maps to the
  // floor cannot make a link; the margin (tens of millions of ulps of a
  // -100 dBm RSSI) keeps every borderline case on the exact path.
  const double floor_rssi =
      radio.min_usable_prr > 0.0 && radio.min_usable_prr < 1.0 &&
              radio.prr_slope_db > 0.0
          ? radio.sensitivity_dbm +
                radio.prr_slope_db * std::log(radio.min_usable_prr /
                                              (1.0 - radio.min_usable_prr)) -
                1e-6
          : -std::numeric_limits<double>::infinity();
  const auto keep = [&](double rssi, NodeId to, std::vector<Link>& row) {
    if (rssi < floor_rssi) return;
    const double prr = radio.prr_of_rssi(rssi);
    if (prr >= radio.min_usable_prr) row.push_back(Link{to, prr});
  };

  std::vector<std::vector<Link>> rows(n);
  const auto realize = [&](NodeId a, NodeId b, double dist, Rng& r) {
    const double rssi = radio.sample_rssi_dbm(dist, r);
    // Mild per-direction asymmetry on top of the shared shadowing.
    const double asym = 0.5 * r.normal();
    keep(rssi + asym, b, rows[a]);
    keep(rssi - asym, a, rows[b]);
  };
  std::vector<SpatialHashGrid::Partner> partners;
  for (NodeId a = 0; a < n; ++a) {
    grid.partners_above(a, max_range, partners);
    for (const auto& [b, dist] : partners) {
      if (mode == LinkRngMode::kPairKeyed) {
        Rng pair_rng(pair_stream_seed(pair_base, a, b));
        realize(a, b, dist, pair_rng);
      } else {
        realize(a, b, dist, rng);
      }
    }
  }

  // Flatten once into an exactly sized CSR (it lives on in caches).
  std::vector<std::size_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId a = 0; a < n; ++a) offsets[a + 1] = offsets[a] + rows[a].size();
  std::vector<Link> links;
  links.reserve(offsets[n]);
  for (std::vector<Link>& row : rows) {
    links.insert(links.end(), row.begin(), row.end());
    std::vector<Link>().swap(row);
  }
  return Topology(std::move(positions), std::move(offsets), std::move(links));
}

template <typename PlaceFn>
Topology generate_with_retries(const GeneratorConfig& config,
                               PlaceFn&& place) {
  constexpr double kMinReachable = 0.99;
  constexpr int kMaxAttempts = 32;
  double best = 0.0;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint64_t attempt_seed =
        config.seed +
        static_cast<std::uint64_t>(attempt) * std::uint64_t{0x9e37};
    Rng rng(attempt_seed);
    Topology topo = build_links(place(rng), config.radio, rng,
                                config.link_rng, attempt_seed);
    const double reached = topo.reachable_fraction();
    if (reached >= kMinReachable) return topo;
    best = std::max(best, reached);
  }
  std::ostringstream message;
  message << "could not generate a connected topology: in " << kMaxAttempts
          << " attempts from seed " << config.seed << " the source reached"
          << " at most " << std::fixed << std::setprecision(2) << 100 * best
          << " % of N = " << config.num_sensors << " sensors (need "
          << 100 * kMinReachable << " %)";
  throw InvalidArgument(message.str());
}

}  // namespace

Topology make_uniform(const GeneratorConfig& config) {
  LDCF_REQUIRE(config.num_sensors >= 1, "need at least one sensor");
  return generate_with_retries(config, [&config](Rng& rng) {
    std::vector<Point2D> pts(config.num_sensors + 1);
    for (auto& p : pts) {
      p = Point2D{rng.uniform() * config.area_side_m,
                  rng.uniform() * config.area_side_m};
    }
    return pts;
  });
}

Topology make_uniform_disk(const GeneratorConfig& config) {
  LDCF_REQUIRE(config.num_sensors >= 1, "need at least one sensor");
  return generate_with_retries(config, [&config](Rng& rng) {
    const double radius = 0.5 * config.area_side_m;
    const Point2D center{radius, radius};
    std::vector<Point2D> pts(config.num_sensors + 1);
    pts[0] = center;  // the source floods from the middle of the disk.
    for (std::size_t i = 1; i < pts.size(); ++i) {
      // sqrt of a uniform radius fraction keeps density uniform over area.
      const double r = radius * std::sqrt(rng.uniform());
      const double theta = 2.0 * std::numbers::pi * rng.uniform();
      pts[i] = Point2D{center.x + r * std::cos(theta),
                       center.y + r * std::sin(theta)};
    }
    return pts;
  });
}

Topology make_grid(const GeneratorConfig& config) {
  LDCF_REQUIRE(config.num_sensors >= 1, "need at least one sensor");
  const auto total = config.num_sensors + 1;
  const auto side = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(total))));
  const double step = config.area_side_m / static_cast<double>(side);
  return generate_with_retries(config, [&](Rng&) {
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

Topology make_clustered(const ClusterConfig& config) {
  const GeneratorConfig& base = config.base;
  LDCF_REQUIRE(base.num_sensors >= 1, "need at least one sensor");
  LDCF_REQUIRE(config.num_clusters >= 1, "need at least one cluster");
  return generate_with_retries(base, [&](Rng& rng) {
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

GeneratorConfig scaled_generator_config(std::uint32_t num_sensors,
                                        std::uint64_t seed) {
  LDCF_REQUIRE(num_sensors >= 1, "need at least one sensor");
  GeneratorConfig config;
  config.num_sensors = num_sensors;
  // Constant density: the GreenOrbs stand-in packs 298 sensors in a 560 m
  // square, so the side grows with sqrt(N).
  config.area_side_m =
      560.0 * std::sqrt(static_cast<double>(num_sensors) / 298.0);
  config.radio.path_loss_exponent = 3.3;
  config.seed = seed;
  return config;
}

ClusterConfig scaled_cluster_config(std::uint32_t num_sensors,
                                    std::uint64_t seed) {
  ClusterConfig config;
  config.base = scaled_generator_config(num_sensors, seed);
  config.num_clusters = std::max(4u, num_sensors / 17u);
  config.cluster_sigma_m = 34.0;
  return config;
}

std::vector<std::string> generator_names() {
  return {"clustered", "uniform", "grid", "disk"};
}

Topology make_network(const std::string& generator,
                      std::uint32_t num_sensors, std::uint64_t seed,
                      LinkRngMode link_rng) {
  if (generator == "clustered") {
    ClusterConfig config = scaled_cluster_config(num_sensors, seed);
    config.base.link_rng = link_rng;
    return make_clustered(config);
  }
  GeneratorConfig config = scaled_generator_config(num_sensors, seed);
  config.link_rng = link_rng;
  if (generator == "uniform") return make_uniform(config);
  if (generator == "grid") return make_grid(config);
  if (generator == "disk") return make_uniform_disk(config);
  throw InvalidArgument("unknown generator '" + generator + "'");
}

Topology make_greenorbs_like(std::uint64_t seed) {
  ClusterConfig config;
  config.base.num_sensors = 298;
  // Sized so the network is genuinely multi-hop (eccentricity >= 6) with a
  // mean out-degree around 12-18, matching the sparse forest deployment.
  // Kept verbatim (not via scaled_cluster_config) because the pinned golden
  // fingerprints depend on these exact constants.
  config.base.area_side_m = 560.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = seed;
  config.num_clusters = 18;
  config.cluster_sigma_m = 34.0;
  return make_clustered(config);
}

Topology make_complete(std::uint32_t num_sensors, double prr) {
  LDCF_REQUIRE(num_sensors >= 1, "need at least one sensor");
  LDCF_REQUIRE(prr > 0.0 && prr <= 1.0, "PRR must be in (0, 1]");
  const NodeId n = num_sensors + 1;
  std::vector<LinkRecord> links;
  links.reserve(static_cast<std::size_t>(n) * num_sensors);
  for (NodeId a = 0; a < n; ++a) {
    for (NodeId b = 0; b < n; ++b) {
      if (a != b) links.push_back(LinkRecord{a, b, prr});
    }
  }
  // Geometry is irrelevant here.
  return Topology::from_links(std::vector<Point2D>(n), std::move(links));
}

}  // namespace ldcf::topology
