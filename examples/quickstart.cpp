// Quickstart: generate a GreenOrbs-like trace, flood ten packets with DBAO
// at a 5% duty cycle, and print the delay/energy summary.
//
//   ./quickstart [seed]
#include <iostream>

#include "ldcf/common/options.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"

int main(int argc, char** argv) {
  using namespace ldcf;

  std::uint64_t seed = 1;
  common::OptionTable("quickstart", "Flood ten packets with DBAO.")
      .positional("seed", &seed, {"", "topology and run seed"}, false)
      .parse_or_exit(argc, argv);

  // 1. A 298-sensor synthetic forest deployment (stand-in for the paper's
  //    GreenOrbs trace; see DESIGN.md).
  const topology::Topology topo = topology::make_greenorbs_like(seed);
  std::cout << "Topology: " << topo.num_sensors() << " sensors, "
            << topo.num_links() << " directed links, mean degree "
            << topo.mean_degree() << ", mean PRR " << topo.mean_prr()
            << ", max hops " << topo.eccentricity_from_source() << "\n";

  // 2. Flood 10 packets at a 5% duty cycle with the DBAO protocol.
  sim::SimConfig config;
  config.duty = DutyCycle::from_ratio(0.05);
  config.num_packets = 10;
  config.seed = seed;
  const auto protocol = protocols::make_protocol("dbao");
  const sim::SimResult result = sim::run_simulation(topo, config, *protocol);

  // 3. Report.
  std::cout << "\nFlooded " << config.num_packets << " packets with "
            << protocol->name() << " at duty "
            << 100.0 * config.duty.ratio() << "% (T = " << config.duty.period
            << " slots)\n";
  std::cout << "  all packets covered: "
            << (result.metrics.all_covered ? "yes" : "NO") << "\n";
  std::cout << "  mean flooding delay: " << result.metrics.mean_total_delay()
            << " slots (queueing " << result.metrics.mean_queueing_delay()
            << " + transmission "
            << result.metrics.mean_transmission_delay() << ")\n";
  std::cout << "  transmission attempts: " << result.metrics.channel.attempts
            << ", failures: " << result.metrics.channel.failures()
            << ", duplicates: " << result.metrics.channel.duplicates << "\n";
  std::cout << "  total energy: " << result.energy.total
            << " units, hottest node: " << result.energy.max_node << "\n";

  std::cout << "\nPer-packet delay (slots):\n";
  for (const auto& rec : result.metrics.packets) {
    std::cout << "  packet " << rec.packet << ": " << rec.total_delay()
              << "\n";
  }
  return result.metrics.all_covered ? 0 : 1;
}
