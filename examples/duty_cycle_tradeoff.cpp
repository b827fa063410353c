// The paper's headline trade-off (§V-C2, future-work §VI): lifetime grows
// ~linearly as the duty cycle shrinks, but flooding delay grows much
// faster, so the overall "networking gain" (lifetime per unit delay) peaks
// at a moderate duty cycle — it is NOT always beneficial to go extremely
// low. This example sweeps the duty cycle with DBAO and prints both sides
// of the trade plus the gain curve.
//
//   ./duty_cycle_tradeoff [num_packets] [seed]
#include <iostream>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/analysis/table.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/topology/generators.hpp"

int main(int argc, char** argv) {
  using namespace ldcf;

  std::uint32_t packets = 20;
  std::uint64_t seed = 1;
  common::OptionTable("duty_cycle_tradeoff", "Sweep DBAO over duty cycles.")
      .positional("num_packets", &packets, {"", "packets per run"}, false)
      .positional("seed", &seed, {"", "topology and run seed"}, false)
      .parse_or_exit(argc, argv);

  const topology::Topology topo = topology::make_greenorbs_like(seed);

  analysis::ExperimentConfig config;
  config.base.num_packets = packets;
  config.base.seed = seed;

  analysis::Table table({"duty", "T", "mean delay", "lifetime (slots)",
                         "gain = lifetime/delay"});
  double best_gain = 0.0;
  double best_duty = 0.0;
  for (const double pct : {2.0, 3.0, 4.0, 5.0, 7.0, 10.0, 15.0, 20.0}) {
    const DutyCycle duty = DutyCycle::from_ratio(pct / 100.0);
    const auto point = analysis::run_point(topo, "dbao", duty, config);
    const double gain =
        point.mean_delay > 0.0 ? point.lifetime_slots / point.mean_delay : 0.0;
    if (gain > best_gain) {
      best_gain = gain;
      best_duty = pct;
    }
    table.add_row({analysis::Table::num(pct, 0) + "%",
                   analysis::Table::num(std::uint64_t{duty.period}),
                   analysis::Table::num(point.mean_delay),
                   analysis::Table::num(point.lifetime_slots, 0),
                   analysis::Table::num(gain, 0)});
  }
  std::cout << "DBAO, " << packets << " packets, 298-sensor trace:\n";
  table.print(std::cout);
  std::cout << "\nBest networking gain at duty " << best_duty
            << "% - pushing the duty cycle lower than this costs more in "
               "delay than it buys in lifetime.\n";
  return 0;
}
