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
#include <string>
#include <vector>

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

/// Common knobs for the random generators. Each one retries with a perturbed
/// seed until the source reaches >= 99 % of the sensors, and throws
/// InvalidArgument after 32 misses.
struct GeneratorConfig {
  std::uint32_t num_sensors = 298;  ///< N; total nodes is N + 1.
  double area_side_m = 350.0;       ///< deployment square side.
  RadioModel radio{};               ///< propagation model for link PRRs.
  std::uint64_t seed = 1;           ///< drives placement and shadowing.
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
/// in the deployment's regime at any scale. make_network builds its
/// uniform, grid and disk networks from it.
[[nodiscard]] GeneratorConfig scaled_generator_config(
    std::uint32_t num_sensors, std::uint64_t seed);

/// scaled_generator_config plus a cluster count growing like N: the shape
/// of make_network's clustered networks.
[[nodiscard]] ClusterConfig scaled_cluster_config(std::uint32_t num_sensors,
                                                  std::uint64_t seed);

/// The names make_network accepts.
[[nodiscard]] std::vector<std::string> generator_names();

/// The one builder of a named network at GreenOrbs density (the scaled_*
/// configs above), used by flood_sim, the server and the scale sweep and
/// bench. Throws InvalidArgument for a name not in generator_names().
[[nodiscard]] Topology make_network(
    const std::string& generator, std::uint32_t num_sensors,
    std::uint64_t seed, LinkRngMode link_rng = LinkRngMode::kSequential);

/// The GreenOrbs stand-in: 298 sensors, clustered forest placement, CC2420
/// radio defaults, deterministic per seed.
[[nodiscard]] Topology make_greenorbs_like(std::uint64_t seed);

/// Fully connected topology with identical link quality `prr` everywhere —
/// the homogeneous k-class network of §IV-B, used to validate the link-loss
/// theory against simulation.
[[nodiscard]] Topology make_complete(std::uint32_t num_sensors, double prr);

}  // namespace ldcf::topology
