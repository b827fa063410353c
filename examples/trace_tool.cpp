// trace_tool — generate, inspect and export topology traces.
//
//   trace_tool gen  <out.csv> [options]         # see: trace_tool gen --help
//   trace_tool info <trace.csv>
//   trace_tool dot  <trace.csv> <out.dot>       # render: neato -n2 -Tsvg
//
// `gen` writes the same seeded GreenOrbs-like traces the benches use, so a
// user can regenerate, archive or hand-edit the exact input of a run.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "ldcf/common/options.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/trace_io.hpp"
#include "ldcf/topology/tree.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage:\n"
               "  trace_tool gen  <out.csv> [options]  (see trace_tool gen "
               "--help)\n"
               "  trace_tool info <trace.csv>\n"
               "  trace_tool dot  <trace.csv> <out.dot>\n";
  std::exit(2);
}

int cmd_gen(int argc, char** argv) {
  using namespace ldcf::topology;
  std::string out_path;
  ClusterConfig config = scaled_cluster_config(298, 1);
  config.num_clusters = 18;  // make_greenorbs_like's stand-in.
  ldcf::common::OptionTable cli(
      "trace_tool gen",
      "Write a GreenOrbs-like trace; --area and --clusters override the "
      "density --sensors implies.");
  cli.positional("OUT", &out_path, {"", "trace CSV to write"}, true)
      .add("--sensors", &config.base.num_sensors, {"N", "sensor count"})
      .add("--seed", &config.base.seed, {"S", "generator seed"})
      .add("--area", &config.base.area_side_m, {"M", "area side in meters"})
      .add("--clusters", &config.num_clusters, {"K", "number of clusters"})
      .add("--exponent", &config.base.radio.path_loss_exponent,
           {"E", "path-loss exponent"});
  cli.parse_or_exit(argc - 1, argv + 1);
  // Keep density roughly constant when resizing, unless overridden.
  if (config.base.num_sensors != 298) {
    const ClusterConfig scaled =
        scaled_cluster_config(config.base.num_sensors, config.base.seed);
    if (!cli.seen("--area")) config.base.area_side_m = scaled.base.area_side_m;
    if (!cli.seen("--clusters")) config.num_clusters = scaled.num_clusters;
  }
  const Topology topo = make_clustered(config);
  write_trace_file(topo, out_path);
  std::cout << "wrote " << out_path << ": " << topo.num_sensors()
            << " sensors, " << topo.num_links() << " links\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  using namespace ldcf::topology;
  if (argc < 3) usage();
  const Topology topo = read_trace_file(argv[2]);
  std::cout << "nodes            : " << topo.num_nodes() << " ("
            << topo.num_sensors() << " sensors + source)\n";
  std::cout << "directed links   : " << topo.num_links() << "\n";
  std::cout << "mean out-degree  : " << topo.mean_degree() << "\n";
  std::cout << "mean link PRR    : " << topo.mean_prr() << "\n";
  std::cout << "reachable from S : " << topo.reachable_count(0) << "\n";
  std::cout << "max hops from S  : " << topo.eccentricity_from_source()
            << "\n";
  const Tree tree = build_etx_tree(topo, 0);
  double worst = 0.0;
  for (ldcf::NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (tree.reached(v) && std::isfinite(tree.cost[v])) {
      worst = std::max(worst, tree.cost[v]);
    }
  }
  std::cout << "worst ETX path   : " << worst << " expected transmissions\n";
  // Link-quality mix: the property the paper's analysis leans on.
  std::size_t good = 0;
  std::size_t mid = 0;
  std::size_t poor = 0;
  for (ldcf::NodeId n = 0; n < topo.num_nodes(); ++n) {
    for (const Link& l : topo.neighbors(n)) {
      if (l.prr > 0.8) {
        ++good;
      } else if (l.prr > 0.4) {
        ++mid;
      } else {
        ++poor;
      }
    }
  }
  std::cout << "link mix         : " << good << " good (>0.8), " << mid
            << " mid (0.4-0.8), " << poor << " poor (<0.4)\n";
  return 0;
}

int cmd_dot(int argc, char** argv) {
  using namespace ldcf::topology;
  if (argc < 4) usage();
  const Topology topo = read_trace_file(argv[2]);
  write_dot_file(topo, argv[3]);
  std::cout << "wrote " << argv[3] << " (render: neato -n2 -Tsvg " << argv[3]
            << " > trace.svg)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") return cmd_gen(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "dot") return cmd_dot(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "trace_tool: " << e.what() << "\n";
    return 1;
  }
  usage();
}
