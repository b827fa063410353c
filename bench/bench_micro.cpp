// Microbenchmarks (google-benchmark) for the library's hot kernels: the
// eigenvalue solver, tree construction, channel resolution, the compact
// flooding engine, the Galton-Watson sampler and whole simulation runs.
#include <benchmark/benchmark.h>

#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/channel.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/theory/compact_flooding.hpp"
#include "ldcf/theory/galton_watson.hpp"
#include "ldcf/theory/link_loss.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/tree.hpp"

namespace {

using namespace ldcf;

const topology::Topology& trace() {
  static const topology::Topology topo = topology::make_greenorbs_like(1);
  return topo;
}

void BM_GrowthRateSolve(benchmark::State& state) {
  double k = 1.25;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        theory::growth_rate(k, static_cast<std::uint32_t>(state.range(0))));
    k = k >= 2.0 ? 1.25 : k + 0.01;  // vary the input a little.
  }
}
BENCHMARK(BM_GrowthRateSolve)->Arg(5)->Arg(20)->Arg(50);

void BM_EtxTreeBuild(benchmark::State& state) {
  const auto& topo = trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::build_etx_tree(topo, 0));
  }
}
BENCHMARK(BM_EtxTreeBuild);

void BM_TopologyGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topology::make_greenorbs_like(seed++));
  }
}
BENCHMARK(BM_TopologyGeneration)->Unit(benchmark::kMillisecond);

void BM_ChannelResolve(benchmark::State& state) {
  const auto& topo = trace();
  Rng rng(3);
  // Build a plausible intent load: each of the first k nodes unicasts to
  // its best neighbor.
  std::vector<sim::TxIntent> intents;
  std::vector<NodeId> receivers;
  for (NodeId u = 0; intents.size() < static_cast<std::size_t>(state.range(0)) &&
                     u < topo.num_nodes();
       ++u) {
    const auto nbrs = topo.neighbors(u);
    if (nbrs.empty()) continue;
    intents.push_back(sim::TxIntent{u, nbrs[0].to, 0, topo.first_link(u)});
    receivers.push_back(nbrs[0].to);
  }
  const sim::ChannelConfig config{true, true};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::resolve_slot(topo, intents, receivers, config, rng));
  }
}
BENCHMARK(BM_ChannelResolve)->Arg(8)->Arg(32)->Arg(128);

void BM_CompactFlooding(benchmark::State& state) {
  const theory::CompactRunConfig config{
      static_cast<std::uint64_t>(state.range(0)), 32, false};
  for (auto _ : state) {
    benchmark::DoNotOptimize(theory::run_compact_flooding(config));
  }
}
BENCHMARK(BM_CompactFlooding)->Arg(64)->Arg(256)->Arg(1024);

void BM_GaltonWatsonRun(benchmark::State& state) {
  Rng rng(5);
  const theory::GwParams params{
      static_cast<std::uint64_t>(state.range(0)), 0.6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(theory::simulate_dissemination(params, rng));
  }
}
BENCHMARK(BM_GaltonWatsonRun)->Arg(1024)->Arg(65536);

void BM_FullSimulation(benchmark::State& state) {
  const auto& topo = trace();
  std::uint64_t seed = 11;
  for (auto _ : state) {
    sim::SimConfig config;
    config.num_packets = 10;
    config.duty = DutyCycle{20};
    config.seed = seed++;
    const auto proto = protocols::make_protocol(
        state.range(0) == 0 ? "opt" : state.range(0) == 1 ? "dbao" : "of");
    benchmark::DoNotOptimize(sim::run_simulation(topo, config, *proto));
  }
  state.SetLabel(state.range(0) == 0   ? "opt"
                 : state.range(0) == 1 ? "dbao"
                                       : "of");
}
BENCHMARK(BM_FullSimulation)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
