#include "ldcf/protocols/opportunistic.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ldcf/common/error.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/tree.hpp"
#include "protocol_diff.hpp"
#include "support/graphs.hpp"

namespace ldcf::protocols {
namespace {

topology::Topology trace() {
  topology::ClusterConfig config;
  config.base.num_sensors = 60;
  config.base.area_side_m = 260.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 5;
  config.num_clusters = 6;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

sim::SimResult run_of(const topology::Topology& topo,
                      const OpportunisticConfig& oconf,
                      std::uint32_t packets = 8, std::uint64_t seed = 23) {
  sim::SimConfig config;
  config.num_packets = packets;
  config.duty = DutyCycle{10};
  config.seed = seed;
  config.max_slots = 3'000'000;
  OpportunisticFlooding proto(oconf);
  return sim::run_simulation(topo, config, proto);
}

TEST(Of, FlagsAndName) {
  OpportunisticFlooding proto;
  EXPECT_EQ(proto.name(), "of");
  EXPECT_FALSE(proto.wants_overhearing());
  EXPECT_FALSE(proto.collision_free_oracle());
}

TEST(Of, CoversWithDefaults) {
  const auto topo = trace();
  const auto res = run_of(topo, OpportunisticConfig{});
  EXPECT_TRUE(res.metrics.all_covered);
}

TEST(Of, BuildsTheEnergyTree) {
  const auto topo = trace();
  sim::SimConfig config;
  config.num_packets = 1;
  config.seed = 1;
  OpportunisticFlooding proto;
  (void)sim::run_simulation(topo, config, proto);
  const auto& tree = proto.energy_tree();
  EXPECT_EQ(tree.root, 0u);
  EXPECT_EQ(tree.parent.size(), topo.num_nodes());
  // The tree spans the reachable nodes.
  std::size_t reached = 0;
  for (NodeId v = 0; v < topo.num_nodes(); ++v) {
    if (tree.reached(v)) ++reached;
  }
  EXPECT_EQ(reached, topo.reachable_count(0));
}

// initialize files each energy-tree edge as a pend target once, so a tree
// edge that is not a link is rejected there, not at the first pend.
TEST(Of, InitializeRequiresTreeEdgesToBeLinks) {
  const topology::Topology topo = test_support::undirected(
      4, {{0, 1, 0.9}, {0, 2, 0.5}, {1, 2, 1.0}, {2, 3, 0.8}});
  const schedule::ScheduleSet schedules{{0, 1, 2, 3}, DutyCycle{4}};
  const sim::PossessionState possession{4, 4};
  topology::Tree tree = topology::build_etx_tree(topo, 0);
  SimContext ctx;
  ctx.topo = &topo;
  ctx.schedules = &schedules;
  ctx.duty = DutyCycle{4};
  ctx.num_packets = 4;
  ctx.possession = &possession;
  ctx.energy_tree = &tree;
  EXPECT_NO_THROW(OpportunisticFlooding().initialize(ctx));
  tree.parent[3] = 0;  // 0-3 not linked.
  EXPECT_THROW(OpportunisticFlooding().initialize(ctx), InvalidArgument);
}

TEST(Of, TreeOnlyVariantIsSlower) {
  // Disabling the opportunistic shortcuts (impossible quantile) leaves the
  // pure tree: delivery still completes, but takes longer.
  const auto topo = trace();
  OpportunisticConfig tree_only;
  tree_only.min_link_prr = 2.0;  // nothing qualifies.
  OpportunisticConfig normal;
  const auto res_tree = run_of(topo, tree_only);
  const auto res_full = run_of(topo, normal);
  ASSERT_TRUE(res_tree.metrics.all_covered);
  ASSERT_TRUE(res_full.metrics.all_covered);
  EXPECT_LT(res_full.metrics.mean_total_delay(),
            res_tree.metrics.mean_total_delay());
  // And the pure tree never collides with itself... almost: tree senders
  // can still hit a busy receiver, but packet-level collisions require
  // concurrent senders, which the tree mostly avoids.
  EXPECT_LE(res_tree.metrics.channel.collisions,
            res_full.metrics.channel.collisions);
}

TEST(Of, OpportunisticCopiesCauseDuplicates) {
  // The probabilistic gamble trades duplicates/collisions for delay — the
  // exact cost the paper's Fig. 11 shows for OF.
  const auto topo = trace();
  const auto res = run_of(topo, OpportunisticConfig{}, 12);
  ASSERT_TRUE(res.metrics.all_covered);
  EXPECT_GT(res.metrics.channel.duplicates + res.metrics.channel.collisions,
            0u);
}

TEST(Of, AggressiveConfigGamblesMore) {
  const auto topo = trace();
  OpportunisticConfig shy;
  shy.min_link_prr = 0.95;
  shy.quantile_z = 3.0;
  OpportunisticConfig bold;
  bold.min_link_prr = 0.3;
  bold.quantile_z = 0.0;
  const auto res_shy = run_of(topo, shy, 10);
  const auto res_bold = run_of(topo, bold, 10);
  ASSERT_TRUE(res_shy.metrics.all_covered);
  ASSERT_TRUE(res_bold.metrics.all_covered);
  EXPECT_GT(res_bold.metrics.channel.attempts,
            res_shy.metrics.channel.attempts);
}

// The proposal step as it was before the phase index: a full scan of every
// node x neighbor x packet per slot, with a linear search over the tree
// children and over the gambles already made. Kept verbatim as the
// executable specification the indexed OpportunisticFlooding must match.
class ReferenceOf final : public PendingSetProtocol {
 public:
  explicit ReferenceOf(const OpportunisticConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return "of-ref"; }

  void initialize(const SimContext& ctx) override {
    PendingSetProtocol::initialize(ctx);
    tree_ = topology::build_etx_tree(*ctx.topo, ctx.source);
    children_.assign(ctx.topo->num_nodes(), {});
    for (NodeId v = 0; v < tree_.parent.size(); ++v) {
      if (tree_.parent[v] != kNoNode) children_[tree_.parent[v]].push_back(v);
    }
    delay_ = topology::tree_delay_distribution(*ctx.topo, tree_, ctx.duty);
    generated_at_.assign(ctx.num_packets, kNeverSlot);
    gambled_.assign(ctx.topo->num_nodes(),
                    std::vector<std::vector<NodeId>>(ctx.num_packets));
    max_quantile_ = -std::numeric_limits<double>::infinity();
    for (NodeId r = 0; r < ctx.topo->num_nodes(); ++r) {
      const double mean = delay_.mean[r];
      if (std::isinf(mean)) continue;
      max_quantile_ = std::max(
          max_quantile_,
          mean - config_.quantile_z * std::sqrt(delay_.variance[r]));
    }
    gamble_deadline_ = -std::numeric_limits<double>::infinity();
  }

  void on_generate(PacketId packet, SlotIndex slot) override {
    generated_at_[packet] = slot;
    gamble_deadline_ = std::max(gamble_deadline_,
                                static_cast<double>(slot) + max_quantile_);
    PendingSetProtocol::on_generate(packet, slot);
  }

  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    if (static_cast<double>(from + 1) < gamble_deadline_) return from;
    return pending_next_busy_slot(from);
  }

  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> /*active_receivers*/,
                             std::vector<TxIntent>& out) override {
    const auto& topo = *ctx().topo;
    const auto& schedules = *ctx().schedules;
    const auto n = static_cast<NodeId>(topo.num_nodes());
    const auto phase = static_cast<std::uint32_t>(slot % ctx().duty.period);

    for (NodeId node = 0; node < n; ++node) {
      if (const auto intent = select_fcfs(node, slot)) {
        out.push_back(*intent);
        continue;
      }
      TxIntent gamble{};
      double best_prr = -1.0;
      for (const topology::Link& link : topo.neighbors(node)) {
        const NodeId j = link.to;
        if (schedules.active_slot(j) != phase) continue;
        if (j == tree_.parent[node]) continue;
        if (std::find(children_[node].begin(), children_[node].end(), j) !=
            children_[node].end()) {
          continue;
        }
        for (PacketId p = ctx().num_packets; p-- > 0;) {
          if (!node_has(node, p)) continue;
          const auto& tried = gambled_[node][p];
          if (std::find(tried.begin(), tried.end(), j) != tried.end()) continue;
          if (!opportunistic_worthwhile(j, p, slot, link.prr)) continue;
          if (link.prr > best_prr) {
            best_prr = link.prr;
            gamble = test_support::unicast(topo, node, j, p);
          }
          break;
        }
      }
      if (best_prr > 0.0 && rng().bernoulli(best_prr)) {
        gambled_[gamble.sender][gamble.packet].push_back(gamble.receiver);
        out.push_back(gamble);
      }
    }
  }

 protected:
  void enqueue_forwarding(NodeId node, PacketId packet,
                          NodeId /*from*/) override {
    for (const NodeId child : children_[node]) {
      pend(node, packet, test::link_target(ctx(), node, child));
    }
  }

 private:
  [[nodiscard]] bool opportunistic_worthwhile(NodeId receiver, PacketId packet,
                                              SlotIndex slot,
                                              double link_prr) const {
    if (link_prr < config_.min_link_prr) return false;
    if (generated_at_[packet] == kNeverSlot) return false;
    const double mean = delay_.mean[receiver];
    if (std::isinf(mean)) return false;
    const double lower_quantile =
        mean - config_.quantile_z * std::sqrt(delay_.variance[receiver]);
    const double tree_eta =
        static_cast<double>(generated_at_[packet]) + lower_quantile;
    return static_cast<double>(slot + 1) < tree_eta;
  }

  OpportunisticConfig config_{};
  topology::Tree tree_;
  std::vector<std::vector<NodeId>> children_;
  topology::DelayDistribution delay_;
  std::vector<SlotIndex> generated_at_;
  std::vector<std::vector<std::vector<NodeId>>> gambled_;
  double max_quantile_ = 0.0;
  double gamble_deadline_ = 0.0;
};

struct DiffCase {
  std::uint32_t period;
  OpportunisticConfig of;
  std::uint32_t packet_spacing;
  bool perturbed;
  std::uint32_t packets = 8;
};

// Runs the reference and the indexed protocol on one case, in dense and in
// compact time, and requires identical intents slot by slot and identical
// results. Returns how many gambles (intents off the energy tree) the
// indexed protocol proposed.
std::size_t expect_matches_reference(const topology::Topology& topo,
                                     const DiffCase& c) {
  sim::SimConfig config;
  config.num_packets = c.packets;
  config.duty = DutyCycle{c.period};
  config.packet_spacing = c.packet_spacing;
  config.seed = 41;
  config.max_slots = 400'000;
  if (c.perturbed) {
    config.capture_ratio = 2.0;
    config.sync_miss_prob = 0.05;
    config.perturbations.node_failures.push_back(sim::NodeFailure{13, 40});
    config.perturbations.burst = sim::LinkBurst{0.5, 50, 25, 200};
    config.max_slots = 20'000;
  }
  std::size_t gambles = 0;
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "dense");
    config.compact_time = compact;
    ReferenceOf reference(c.of);
    test::Recorder reference_log(reference);
    const auto expected = sim::run_simulation(topo, config, reference_log);
    OpportunisticFlooding indexed(c.of);
    test::Recorder indexed_log(indexed);
    const auto actual = sim::run_simulation(topo, config, indexed_log);
    EXPECT_EQ(indexed_log.log, reference_log.log);
    test::expect_identical(expected, actual);
    const auto& parent = indexed.energy_tree().parent;
    gambles = static_cast<std::size_t>(std::count_if(
        indexed_log.log.begin(), indexed_log.log.end(), [&](const auto& e) {
          return parent[std::get<2>(e)] != std::get<1>(e);
        }));
  }
  return gambles;
}

TEST(Of, IndexedProposalsMatchTheFullScanAcrossDuties) {
  const auto topo = trace();
  OpportunisticConfig bold;  // gambles even at 100 % duty.
  bold.min_link_prr = 0.0;
  bold.quantile_z = 0.0;
  // 1, 5, 20 and 100 % duty, faults on and off, packet spacing 1 and 3.
  // Bold runs send 32 packets 20 slots apart: at 100 % duty a relay only
  // gambles once its tree children are served, which back-to-back packets
  // never allow.
  for (const std::uint32_t period : {100u, 20u, 5u, 1u}) {
    for (const bool perturbed : {false, true}) {
      for (const bool is_bold : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "period " << period
                                          << " perturbed " << perturbed
                                          << " bold " << is_bold);
        const DiffCase c =
            is_bold ? DiffCase{period, bold, 20, perturbed, 32}
                    : DiffCase{period, OpportunisticConfig{},
                               perturbed ? 3u : 1u, perturbed};
        const std::size_t gambles = expect_matches_reference(topo, c);
        if (is_bold) {
          EXPECT_GT(gambles, 0u);
        }
      }
    }
  }
}

TEST(Of, IndexedProposalsMatchTheFullScanAcrossKnobs) {
  const auto topo = trace();
  std::uint32_t index = 0;
  for (const double min_prr : {0.0, 0.6, 2.0}) {
    for (const double z : {0.0, 0.84, 3.0}) {
      const bool perturbed = index % 2 == 1;
      const DiffCase c{20, OpportunisticConfig{min_prr, z},
                       index % 3 == 0 ? 4u : 1u, perturbed};
      ++index;
      SCOPED_TRACE(::testing::Message() << "min_link_prr " << min_prr << " z "
                                        << z << " perturbed " << perturbed);
      const std::size_t gambles = expect_matches_reference(topo, c);
      if (min_prr > 1.0) {
        EXPECT_EQ(gambles, 0u);  // no link is good enough.
      } else {
        EXPECT_GT(gambles, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace ldcf::protocols
