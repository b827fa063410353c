// The counter-based channel kernel's contracts (DESIGN.md §11):
//
//  * kSlotKeyed draws are a pure function of (channel seed, slot, unordered
//    link pair, packet, kind) — independent of evaluation order, and
//    therefore bit-identical across the compact/dense engine modes, for
//    every registered protocol;
//  * kSequential and kSlotKeyed are different realizations of the same
//    distribution: aggregate metrics (delivery counts, FDL, loss/collision
//    counters) must agree within tolerance across many seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "ldcf/analysis/experiment.hpp"
#include "ldcf/common/rng.hpp"
#include "ldcf/obs/stats_observer.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/channel.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/topology.hpp"
#include "support/intents.hpp"

namespace {

using namespace ldcf;

// ---------------------------------------------------------------- draw keys

TEST(ChannelKeyed, DrawSeedIsUnorderedInThePairAndSeparatesEverythingElse) {
  const std::uint64_t base = 0xfeedULL;
  EXPECT_EQ(channel_draw_seed(base, 7, 3, 9, 2, 0),
            channel_draw_seed(base, 7, 9, 3, 2, 0));
  // Any single differing component must move the key.
  const std::uint64_t k = channel_draw_seed(base, 7, 3, 9, 2, 0);
  EXPECT_NE(k, channel_draw_seed(base + 1, 7, 3, 9, 2, 0));
  EXPECT_NE(k, channel_draw_seed(base, 8, 3, 9, 2, 0));
  EXPECT_NE(k, channel_draw_seed(base, 7, 3, 10, 2, 0));
  EXPECT_NE(k, channel_draw_seed(base, 7, 3, 9, 3, 0));
  EXPECT_NE(k, channel_draw_seed(base, 7, 3, 9, 2, 1));
}

TEST(ChannelKeyed, KeyedUnitIsInTheHalfOpenUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = keyed_unit(rng.next());
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  EXPECT_EQ(keyed_unit(0), 0.0);
  EXPECT_LT(keyed_unit(~0ULL), 1.0);
}

// ---------------------------------------------------- kernel-level contracts

// A disjoint star forest: `senders` hubs, each linked to `leaves` private
// listeners, so every listener hears exactly one transmission — a saturated
// workload whose draw count (senders * leaves) is under precise control.
topology::Topology star_forest(std::uint32_t senders, std::uint32_t leaves,
                               double prr) {
  const std::uint32_t nodes = senders * (leaves + 1);
  std::vector<topology::LinkRecord> links;
  for (std::uint32_t s = 0; s < senders; ++s) {
    const NodeId hub = s * (leaves + 1);
    for (std::uint32_t l = 1; l <= leaves; ++l) {
      links.push_back({hub, hub + l, prr});
      links.push_back({hub + l, hub, prr});
    }
  }
  topology::Topology topo = topology::Topology::from_links(
      std::vector<topology::Point2D>(nodes), std::move(links));
  return topo;
}

void expect_same_resolution(const sim::SlotResolution& a,
                            const sim::SlotResolution& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << "result " << i;
  }
  ASSERT_EQ(a.overhears.size(), b.overhears.size());
  for (std::size_t i = 0; i < a.overhears.size(); ++i) {
    EXPECT_EQ(a.overhears[i].listener, b.overhears[i].listener) << i;
    EXPECT_EQ(a.overhears[i].sender, b.overhears[i].sender) << i;
    EXPECT_EQ(a.overhears[i].packet, b.overhears[i].packet) << i;
  }
}

sim::ChannelConfig keyed_config() {
  sim::ChannelConfig config;
  config.collisions = true;
  config.overhearing = true;
  config.rng_mode = sim::ChannelRngMode::kSlotKeyed;
  config.keyed_seed = 0xabcdef12345ULL;
  return config;
}

TEST(ChannelKeyed, DrawsAreIndependentOfIntentOrder) {
  const topology::Topology topo = star_forest(8, 64, 0.5);
  std::vector<NodeId> active;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) active.push_back(n);
  std::vector<sim::TxIntent> forward;
  for (std::uint32_t s = 0; s < 8; ++s) {
    // Unicast to the first leaf; the other 63 leaves overhear.
    forward.push_back(test_support::unicast(topo, s * 65, s * 65 + 1, s));
  }
  std::vector<sim::TxIntent> reversed(forward.rbegin(), forward.rend());

  sim::Channel channel(topo);
  Rng rng(5);
  sim::SlotResolution a;
  channel.resolve(forward, active, /*slot=*/3, keyed_config(), rng, a);
  sim::SlotResolution b;
  channel.resolve(reversed, active, /*slot=*/3, keyed_config(), rng, b);

  // Per-link outcomes must match under the permutation: result i of the
  // forward order is result (n-1-i) of the reversed order...
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const std::size_t j = a.results.size() - 1 - i;
    EXPECT_EQ(a.results[i].intent.sender, b.results[j].intent.sender);
    EXPECT_EQ(a.results[i].outcome, b.results[j].outcome) << "intent " << i;
  }
  // ...and the overhear stream, keyed per (listener, sender, packet) and
  // emitted in ascending listener order, is identical verbatim.
  expect_same_resolution(sim::SlotResolution{{}, a.overhears},
                         sim::SlotResolution{{}, b.overhears});
}

TEST(ChannelKeyed, SequentialAndKeyedAreDifferentRealizations) {
  // Not a statistical statement — just that the mode switch actually
  // switches: 4096 p=0.5 draws agreeing bit-for-bit by chance is 2^-4096.
  const topology::Topology topo = star_forest(16, 256, 0.5);
  std::vector<sim::TxIntent> intents;
  std::vector<NodeId> active;
  for (NodeId n = 0; n < topo.num_nodes(); ++n) active.push_back(n);
  for (std::uint32_t s = 0; s < 16; ++s) {
    intents.push_back(sim::TxIntent{s * 257, kNoNode, 0});
  }
  sim::Channel channel(topo);
  Rng seq_rng(42);
  sim::SlotResolution seq;
  sim::ChannelConfig seq_config = keyed_config();
  seq_config.rng_mode = sim::ChannelRngMode::kSequential;
  channel.resolve(intents, active, /*slot=*/0, seq_config, seq_rng, seq);
  Rng keyed_rng(42);
  sim::SlotResolution keyed;
  channel.resolve(intents, active, /*slot=*/0, keyed_config(), keyed_rng,
                  keyed);
  const auto listeners = [](const sim::SlotResolution& r) {
    std::vector<NodeId> out;
    out.reserve(r.overhears.size());
    for (const sim::OverhearEvent& ev : r.overhears) out.push_back(ev.listener);
    return out;
  };
  EXPECT_NE(listeners(seq), listeners(keyed));
}

// Brute-force overhear reference for one keyed slot: every active listener
// that neither transmits nor is addressed scans all intents in order, and
// decodes the one audible transmission (or, with capture, a dominant one)
// with its keyed overhear draw.
std::vector<sim::OverhearEvent> reference_overhears(
    const topology::Topology& topo, const std::vector<sim::TxIntent>& intents,
    const std::vector<NodeId>& active, SlotIndex slot,
    const sim::ChannelConfig& config) {
  constexpr std::uint32_t kOverhearDrawKind = 1;  // vs 0 for unicast loss.
  std::vector<sim::OverhearEvent> out;
  for (const NodeId listener : active) {
    const bool busy = std::any_of(
        intents.begin(), intents.end(), [&](const sim::TxIntent& intent) {
          return intent.sender == listener || intent.receiver == listener;
        });
    if (busy) continue;
    std::uint32_t audible = 0;
    double best = 0.0;
    double second = 0.0;
    std::size_t best_intent = intents.size();
    std::size_t last_intent = intents.size();
    for (std::size_t i = 0; i < intents.size(); ++i) {
      const auto prr = topo.prr(intents[i].sender, listener);
      if (!prr) continue;
      ++audible;
      last_intent = i;
      if (*prr > best) {
        second = best;
        best = *prr;
        best_intent = i;
      } else if (*prr > second) {
        second = *prr;
      }
    }
    std::size_t decodable = intents.size();
    if (audible == 1) {
      decodable = last_intent;
    } else if (audible > 1 && config.capture_ratio > 0.0 && second > 0.0 &&
               best >= config.capture_ratio * second) {
      decodable = best_intent;
    }
    if (decodable == intents.size()) continue;
    const sim::TxIntent& heard = intents[decodable];
    if (!heard.is_broadcast() && !config.overhearing) continue;
    const std::uint64_t key =
        channel_draw_seed(config.keyed_seed, slot, heard.sender, listener,
                          heard.packet, kOverhearDrawKind);
    if (keyed_unit(key) < std::min(best * config.prr_scale, 1.0)) {
      out.push_back(sim::OverhearEvent{listener, heard.sender, heard.packet});
    }
  }
  return out;
}

TEST(ChannelKeyed, OverhearsMatchABruteForcePerListenerReference) {
  // Random directed links with random PRRs, so a sender's neighborhood
  // mixes awake listeners with sleeping high-PRR neighbors; one Channel
  // resolves every slot, so stale per-listener scratch would show.
  constexpr NodeId kNodes = 160;
  Rng gen(2024);
  std::vector<topology::LinkRecord> links;
  for (NodeId u = 0; u < kNodes; ++u) {
    for (NodeId v = 0; v < kNodes; ++v) {
      if (u != v && gen.bernoulli(0.08)) {
        links.push_back({u, v, 0.05 + 0.95 * gen.uniform()});
      }
    }
  }
  const topology::Topology topo = topology::Topology::from_links(
      std::vector<topology::Point2D>(kNodes), std::move(links));
  sim::Channel channel(topo);
  std::size_t overheard = 0;
  for (SlotIndex slot = 0; slot < 240; ++slot) {
    const double awake_shares[] = {1.0, 0.05, 0.15, 0.3};
    const double awake_share = awake_shares[slot % 4];
    std::vector<NodeId> active;
    std::vector<std::uint8_t> is_active(kNodes, 0);
    for (NodeId n = 0; n < kNodes; ++n) {
      if (gen.bernoulli(awake_share)) {
        active.push_back(n);
        is_active[n] = 1;
      }
    }
    // 1..40 distinct senders; a quarter broadcast, the rest unicast to an
    // awake out-neighbor (falling back to a broadcast when none is awake).
    const auto senders = 1 + static_cast<std::uint32_t>(gen.below(40));
    std::vector<std::uint8_t> sending(kNodes, 0);
    std::vector<sim::TxIntent> intents;
    for (std::uint32_t k = 0; k < senders; ++k) {
      const auto sender = static_cast<NodeId>(gen.below(kNodes));
      if (sending[sender] != 0) continue;
      sending[sender] = 1;
      sim::TxIntent intent{sender, kNoNode,
                           static_cast<PacketId>(gen.below(3))};
      if (!gen.bernoulli(0.25)) {
        for (const topology::Link& link : topo.neighbors(sender)) {
          if (is_active[link.to] != 0) {
            intent = test_support::unicast(topo, sender, link.to,
                                           intent.packet);
            break;
          }
        }
      }
      intents.push_back(intent);
    }
    sim::ChannelConfig config = keyed_config();
    config.capture_ratio = slot % 2 == 0 ? 0.0 : 1.5;
    config.overhearing = slot % 3 != 0;
    Rng rng(1);
    sim::SlotResolution out;
    channel.resolve(intents, active, slot, config, rng, out);
    SCOPED_TRACE(::testing::Message() << "slot " << slot);
    const auto expected =
        reference_overhears(topo, intents, active, slot, config);
    expect_same_resolution(sim::SlotResolution{{}, expected},
                           sim::SlotResolution{{}, out.overhears});
    overheard += expected.size();
  }
  EXPECT_GT(overheard, 100u);
}

// ---------------------------------------------------- engine-level contracts

void expect_identical_results(const sim::SimResult& a,
                              const sim::SimResult& b) {
  EXPECT_EQ(a.metrics.end_slot, b.metrics.end_slot);
  EXPECT_EQ(a.metrics.all_covered, b.metrics.all_covered);
  EXPECT_EQ(a.metrics.truncated, b.metrics.truncated);
  const auto& ac = a.metrics.channel;
  const auto& bc = b.metrics.channel;
  EXPECT_EQ(ac.attempts, bc.attempts);
  EXPECT_EQ(ac.delivered, bc.delivered);
  EXPECT_EQ(ac.duplicates, bc.duplicates);
  EXPECT_EQ(ac.losses, bc.losses);
  EXPECT_EQ(ac.collisions, bc.collisions);
  EXPECT_EQ(ac.receiver_busy, bc.receiver_busy);
  EXPECT_EQ(ac.broadcasts, bc.broadcasts);
  EXPECT_EQ(ac.sync_misses, bc.sync_misses);
  EXPECT_EQ(ac.overhear_deliveries, bc.overhear_deliveries);
  ASSERT_EQ(a.metrics.packets.size(), b.metrics.packets.size());
  for (std::size_t p = 0; p < a.metrics.packets.size(); ++p) {
    EXPECT_EQ(a.metrics.packets[p].first_tx_at, b.metrics.packets[p].first_tx_at);
    EXPECT_EQ(a.metrics.packets[p].covered_at, b.metrics.packets[p].covered_at);
    EXPECT_EQ(a.metrics.packets[p].deliveries, b.metrics.packets[p].deliveries);
  }
  EXPECT_EQ(a.tally.active_slots, b.tally.active_slots);
  EXPECT_EQ(a.tally.dormant_slots, b.tally.dormant_slots);
  EXPECT_EQ(a.tally.tx_attempts, b.tally.tx_attempts);
  EXPECT_EQ(a.tally.receptions, b.tally.receptions);
  EXPECT_EQ(a.energy.per_node, b.energy.per_node);
  EXPECT_EQ(a.energy.total, b.energy.total);
}

topology::Topology keyed_engine_topology(std::uint32_t sensors) {
  topology::ClusterConfig config;
  config.base.num_sensors = sensors;
  config.base.area_side_m = 220.0;
  config.base.seed = 5;
  config.num_clusters = 4;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

sim::SimConfig keyed_engine_config() {
  sim::SimConfig config;
  config.num_packets = 5;
  // T=1: every node is awake every slot, so busy slots put the whole
  // network in the listener pass. The differential tests below override it
  // with real duty cycling.
  config.duty = DutyCycle{1};
  config.seed = 17;
  config.packet_spacing = 3;
  // Tight cap: truncates naive (which floods ~300 draws/slot indefinitely
  // at T=1) after it has resolved a few hundred thousand keyed draws —
  // plenty of coverage without minutes of runtime.
  config.max_slots = 3'000;
  config.capture_ratio = 2.0;
  config.channel_rng = sim::ChannelRngMode::kSlotKeyed;
  return config;
}

TEST(KeyedDifferential, CompactAndDenseAgreeForEveryProtocol) {
  const topology::Topology topo = keyed_engine_topology(60);
  for (const std::string& protocol : protocols::protocol_names()) {
    SCOPED_TRACE(protocol);
    sim::SimConfig config = keyed_engine_config();
    config.duty = DutyCycle{10};  // real duty cycling so gaps exist to skip.
    config.sync_miss_prob = 0.05;
    config.perturbations.burst = sim::LinkBurst{0.5, 40, 20, 160};
    sim::SimConfig dense = config;
    dense.compact_time = false;
    sim::SimConfig compact = config;
    compact.compact_time = true;
    auto p1 = protocols::make_protocol(protocol);
    auto p2 = protocols::make_protocol(protocol);
    expect_identical_results(sim::run_simulation(topo, dense, *p1),
                             sim::run_simulation(topo, compact, *p2));
  }
}

TEST(KeyedDifferential, KeyedEngineRunsAreReplayable) {
  const topology::Topology topo = keyed_engine_topology(60);
  sim::SimConfig config = keyed_engine_config();
  config.duty = DutyCycle{10};
  sim::SimEngine engine(topo, config);
  auto p1 = protocols::make_protocol("dbao");
  auto p2 = protocols::make_protocol("dbao");
  const sim::SimResult first = engine.run(*p1);
  const sim::SimResult second = engine.run(*p2);
  expect_identical_results(first, second);
}

// ------------------------------------------------- statistical equivalence

// kSequential and kSlotKeyed sample the same per-link loss distribution, so
// seed-averaged aggregates must agree within sampling noise. 24 seeds per
// mode (run_point reseeds every repetition); both sides are deterministic,
// so this is a fixed comparison, not a flaky one — the tolerances just have
// to cover the realization gap once.
TEST(KeyedStatistics, SequentialAndKeyedAggregatesAgreeAcrossSeeds) {
  const topology::Topology topo = keyed_engine_topology(60);
  const auto run_mode = [&](const std::string& protocol,
                            sim::ChannelRngMode mode) {
    analysis::ExperimentConfig config;
    config.base.num_packets = 8;
    config.base.duty = DutyCycle{10};
    config.base.seed = 3;
    config.base.max_slots = 200'000;
    config.base.channel_rng = mode;
    config.repetitions = 24;
    config.threads = 4;
    config.trial.collect_stats = true;
    return analysis::run_point(topo, protocol, config.base.duty, config);
  };
  const auto relative_gap = [](double a, double b) {
    const double denom = std::max(std::abs(a), std::abs(b));
    return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
  };
  // "of" exercises the collision counter (its slot contention is real);
  // "dbao" exercises overhearing-heavy unicast traffic.
  for (const std::string& protocol : {std::string("of"), std::string("dbao")}) {
    SCOPED_TRACE(protocol);
    analysis::ProtocolPoint seq =
        run_mode(protocol, sim::ChannelRngMode::kSequential);
    analysis::ProtocolPoint keyed =
        run_mode(protocol, sim::ChannelRngMode::kSlotKeyed);
    // FDL and per-run attempt/failure aggregates.
    EXPECT_LT(relative_gap(seq.mean_delay, keyed.mean_delay), 0.10);
    EXPECT_LT(relative_gap(seq.attempts, keyed.attempts), 0.10);
    EXPECT_LT(relative_gap(seq.failures, keyed.failures), 0.15);
    EXPECT_LT(relative_gap(seq.energy_total, keyed.energy_total), 0.10);
    EXPECT_TRUE(seq.all_covered);
    EXPECT_TRUE(keyed.all_covered);
    // Delivery and collision counters, summed across the 24 runs.
    for (const char* counter :
         {"tx.delivered", "tx.link_loss", "delivery.unicast"}) {
      const double s =
          static_cast<double>(seq.metrics.counter(counter).value());
      const double k =
          static_cast<double>(keyed.metrics.counter(counter).value());
      EXPECT_LT(relative_gap(s, k), 0.15) << counter;
    }
    const double seq_coll =
        static_cast<double>(seq.metrics.counter("tx.collision").value());
    const double keyed_coll =
        static_cast<double>(keyed.metrics.counter("tx.collision").value());
    if (protocol == "of") {
      EXPECT_GT(seq_coll, 0.0);  // the counter is genuinely exercised.
      EXPECT_LT(relative_gap(seq_coll, keyed_coll), 0.35);
    }
  }
}

}  // namespace
