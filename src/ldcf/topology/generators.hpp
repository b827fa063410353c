// Topology generators.
//
// The paper validates on a 298-node GreenOrbs forest deployment whose link
// qualities come from six months of RSSI measurements. We cannot ship that
// proprietary trace, so `make_greenorbs_like` builds a statistically similar
// stand-in: clustered ("forest patch") placement, log-distance + shadowing
// PRR links, 298 sensors plus a source, guaranteed source-connectivity. The
// substitution is documented in DESIGN.md §2.
//
// Link construction uses a spatial hash grid range query instead of the
// historical all-pairs loop — O(N + links) rather than O(N^2), which is
// what makes 100k-node topologies buildable — and writes the finished CSR in
// the same pass (DESIGN.md §9, `bench_scale`).
#pragma once

#include <cstdint>

#include "ldcf/common/rng.hpp"
#include "ldcf/topology/radio_propagation.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::topology {

/// How per-link shadowing randomness is drawn during construction.
enum class LinkRngMode {
  /// One sequential stream consumed in canonical ascending (a, b) pair
  /// order — bit-identical to the historical all-pairs generator, and the
  /// default because the golden-metrics fingerprints are pinned to it.
  kSequential,
  /// Counter-based per-pair streams keyed by (seed, min(a,b), max(a,b)):
  /// each link's realization is independent of pair-visit order, so link
  /// construction can be re-ordered, sharded or parallelized without
  /// changing the topology. Preferred for new large-N experiments.
  kPairKeyed,
};

/// Common knobs for the random generators.
struct GeneratorConfig {
  std::uint32_t num_sensors = 298;  ///< N; total nodes is N + 1.
  double area_side_m = 350.0;       ///< deployment square side.
  RadioModel radio{};               ///< propagation model for link PRRs.
  std::uint64_t seed = 1;           ///< drives placement and shadowing.
  /// If true (default), rejects topologies whose source cannot reach at
  /// least `min_reachable_fraction` of the sensors and retries with a
  /// perturbed seed (up to 32 attempts).
  bool require_connectivity = true;
  double min_reachable_fraction = 0.99;
  /// Link-shadowing draw scheme (see LinkRngMode).
  LinkRngMode link_rng = LinkRngMode::kSequential;
};

/// Uniformly random placement in the square.
[[nodiscard]] Topology make_uniform(const GeneratorConfig& config);

/// Uniformly random placement in the disk inscribed in the square (diameter
/// `area_side_m`). Constant-density disks are the natural shape for N-scaling
/// sweeps: the source sits in the bulk instead of a corner, so eccentricity
/// grows like sqrt(N) from the center out.
[[nodiscard]] Topology make_uniform_disk(const GeneratorConfig& config);

/// Regular grid placement (ceil(sqrt(N+1)) per side), useful for tests that
/// need predictable geometry.
[[nodiscard]] Topology make_grid(const GeneratorConfig& config);

/// Clustered "forest" placement: Matern-like cluster process with
/// `num_clusters` Gaussian patches, mimicking trees instrumented in groups.
struct ClusterConfig {
  GeneratorConfig base{};
  std::uint32_t num_clusters = 12;
  double cluster_sigma_m = 35.0;
};
[[nodiscard]] Topology make_clustered(const ClusterConfig& config);

/// A GreenOrbs-density config scaled to `num_sensors`: the stand-in packs
/// 298 sensors in a 560 m square with path-loss exponent 3.3, so the side
/// grows like sqrt(N) (constant sensor density) and the mean degree stays
/// in the deployment's regime at any scale. `flood_sim --sensors` and the
/// sweep server build their uniform, grid and disk networks from it.
[[nodiscard]] GeneratorConfig scaled_generator_config(
    std::uint32_t num_sensors, std::uint64_t seed);

/// scaled_generator_config plus a cluster count growing like N. This is
/// the shape `flood_sim --sensors`, the sweep server and the N-scaling
/// benches use for clustered networks; pair it with LinkRngMode::kPairKeyed
/// for order-independent links.
[[nodiscard]] ClusterConfig scaled_cluster_config(std::uint32_t num_sensors,
                                                  std::uint64_t seed);

/// The GreenOrbs stand-in: 298 sensors, clustered forest placement, CC2420
/// radio defaults, deterministic per seed.
[[nodiscard]] Topology make_greenorbs_like(std::uint64_t seed);

/// Fully connected topology with identical link quality `prr` everywhere —
/// the homogeneous k-class network of §IV-B, used to validate the link-loss
/// theory against simulation.
[[nodiscard]] Topology make_complete(std::uint32_t num_sensors, double prr);

}  // namespace ldcf::topology
