#include "ldcf/protocols/cross_layer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ldcf/protocols/dbao.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/tree.hpp"
#include "protocol_diff.hpp"

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

template <typename Protocol>
sim::SimResult run(const topology::Topology& topo, Protocol&& proto,
                   std::uint32_t packets = 10, std::uint32_t period = 10) {
  sim::SimConfig config;
  config.num_packets = packets;
  config.duty = DutyCycle{period};
  config.seed = 13;
  config.max_slots = 2'000'000;
  return sim::run_simulation(topo, config, proto);
}

TEST(CrossLayer, FlagsAndName) {
  CrossLayerFlooding proto;
  EXPECT_EQ(proto.name(), "xlayer");
  EXPECT_TRUE(proto.wants_overhearing());  // inherits the DBAO MAC.
  EXPECT_FALSE(proto.collision_free_oracle());
}

TEST(CrossLayer, CoversTheNetwork) {
  const auto topo = trace();
  CrossLayerFlooding proto;
  const auto res = run(topo, proto);
  EXPECT_TRUE(res.metrics.all_covered);
}

TEST(CrossLayer, NotSlowerThanPlainDbao) {
  // The opportunistic layer may only help (the MAC veto prevents it from
  // disrupting scheduled traffic); allow 10% noise.
  const auto topo = trace();
  CrossLayerFlooding xl;
  DbaoFlooding dbao;
  const auto res_xl = run(topo, xl, 20);
  const auto res_dbao = run(topo, dbao, 20);
  ASSERT_TRUE(res_xl.metrics.all_covered);
  ASSERT_TRUE(res_dbao.metrics.all_covered);
  EXPECT_LT(res_xl.metrics.mean_total_delay(),
            1.10 * res_dbao.metrics.mean_total_delay());
}

TEST(CrossLayer, GamblingWindowScalesWithPeriod) {
  // The duty-aware gate is denominated in periods: with an enormous
  // min_remaining_periods no gamble ever fires and xlayer degenerates to
  // DBAO exactly (same RNG consumption aside).
  const auto topo = trace();
  CrossLayerConfig never;
  never.min_remaining_periods = 1e9;
  CrossLayerFlooding frozen(never);
  DbaoFlooding dbao;
  const auto res_frozen = run(topo, frozen, 10);
  const auto res_dbao = run(topo, dbao, 10);
  ASSERT_TRUE(res_frozen.metrics.all_covered);
  // No extra attempts beyond what DBAO's machinery schedules.
  EXPECT_NEAR(static_cast<double>(res_frozen.metrics.channel.attempts),
              static_cast<double>(res_dbao.metrics.channel.attempts),
              0.05 * static_cast<double>(res_dbao.metrics.channel.attempts));
}

TEST(CrossLayer, BoldGamblingAddsTraffic) {
  const auto topo = trace();
  CrossLayerConfig shy;
  shy.min_link_prr = 0.99;
  CrossLayerConfig bold;
  bold.min_link_prr = 0.2;
  bold.min_remaining_periods = 0.0;
  bold.quantile_z = 0.0;
  CrossLayerFlooding shy_proto(shy);
  CrossLayerFlooding bold_proto(bold);
  const auto res_shy = run(topo, shy_proto, 10);
  const auto res_bold = run(topo, bold_proto, 10);
  ASSERT_TRUE(res_shy.metrics.all_covered);
  ASSERT_TRUE(res_bold.metrics.all_covered);
  EXPECT_GT(res_bold.metrics.channel.attempts,
            res_shy.metrics.channel.attempts);
}

TEST(CrossLayer, RegisteredInTheFactory) {
  const auto proto = make_protocol("xlayer");
  EXPECT_EQ(proto->name(), "xlayer");
}

// The opportunistic layer as it was before the phase index: a full scan of
// every node x neighbor x packet per slot over freshly allocated veto
// vectors. Kept verbatim as the specification CrossLayerFlooding must match.
class ReferenceXlayer final : public DbaoFlooding {
 public:
  explicit ReferenceXlayer(const CrossLayerConfig& config)
      : DbaoFlooding(config.mac), config_(config) {}

  void initialize(const SimContext& ctx) override {
    DbaoFlooding::initialize(ctx);
    delay_tree_ = topology::build_delay_tree(*ctx.topo, ctx.source, ctx.duty);
    delay_ =
        topology::tree_delay_distribution(*ctx.topo, delay_tree_, ctx.duty);
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
    DbaoFlooding::on_generate(packet, slot);
  }

  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    const double window = config_.min_remaining_periods *
                          static_cast<double>(ctx().duty.period);
    if (static_cast<double>(from) + window < gamble_deadline_) return from;
    return DbaoFlooding::next_busy_slot(from);
  }

  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override {
    DbaoFlooding::propose_transmissions(slot, active_receivers, out);
    const auto& topo = *ctx().topo;
    const auto& schedules = *ctx().schedules;
    std::vector<bool> busy(topo.num_nodes(), false);
    std::vector<bool> targeted(topo.num_nodes(), false);
    for (const TxIntent& intent : out) {
      busy[intent.sender] = true;
      targeted[intent.receiver] = true;
    }
    std::vector<TxIntent> gambles;
    const auto n = static_cast<NodeId>(topo.num_nodes());
    for (NodeId node = 0; node < n; ++node) {
      if (busy[node]) continue;
      if (targeted[node]) continue;
      TxIntent gamble{};
      double best_prr = -1.0;
      for (const topology::Link& link : topo.neighbors(node)) {
        const NodeId j = link.to;
        if (!schedules.is_active(j, slot)) continue;
        if (targeted[j] || busy[j]) continue;
        for (PacketId p = ctx().num_packets; p-- > 0;) {
          if (!node_has(node, p)) continue;
          const auto& tried = gambled_[node][p];
          if (std::find(tried.begin(), tried.end(), j) != tried.end()) continue;
          if (!gamble_worthwhile(j, p, slot, link.prr)) continue;
          if (link.prr > best_prr) {
            best_prr = link.prr;
            gamble = TxIntent{node, j, p};
          }
          break;
        }
      }
      if (best_prr > 0.0 && rng().bernoulli(best_prr)) {
        gambles.push_back(gamble);
      }
    }
    for (std::size_t i = 0; i < gambles.size(); ++i) {
      bool suppressed = false;
      for (std::size_t j = 0; j < gambles.size() && !suppressed; ++j) {
        if (i == j || gambles[i].receiver != gambles[j].receiver) continue;
        const double pi =
            topo.prr(gambles[i].sender, gambles[i].receiver).value();
        const double pj =
            topo.prr(gambles[j].sender, gambles[j].receiver).value();
        const bool j_wins =
            pj > pi || (pj == pi && gambles[j].sender < gambles[i].sender);
        if (j_wins && carrier_sensed(gambles[i].sender, gambles[j].sender)) {
          suppressed = true;
        }
      }
      if (!suppressed) {
        gambled_[gambles[i].sender][gambles[i].packet].push_back(
            gambles[i].receiver);
        out.push_back(gambles[i]);
      }
    }
  }

 private:
  [[nodiscard]] bool gamble_worthwhile(NodeId receiver, PacketId packet,
                                       SlotIndex slot, double link_prr) const {
    if (link_prr < config_.min_link_prr) return false;
    if (generated_at_[packet] == kNeverSlot) return false;
    const double mean = delay_.mean[receiver];
    if (std::isinf(mean)) return false;
    const double eta =
        static_cast<double>(generated_at_[packet]) + mean -
        config_.quantile_z * std::sqrt(delay_.variance[receiver]);
    const double window =
        config_.min_remaining_periods * static_cast<double>(ctx().duty.period);
    return static_cast<double>(slot) + window < eta;
  }

  CrossLayerConfig config_{};
  topology::Tree delay_tree_;
  topology::DelayDistribution delay_;
  std::vector<SlotIndex> generated_at_;
  std::vector<std::vector<std::vector<NodeId>>> gambled_;
  double max_quantile_ = 0.0;
  double gamble_deadline_ = 0.0;
};

// The indexed opportunistic layer files each receiver under every active
// slot of its schedule; multi-slot schedules (k/T duty) exercise that, and
// faults exercise the MAC veto around dead nodes.
TEST(CrossLayer, IndexedProposalsMatchTheFullScan) {
  const auto topo = trace();
  CrossLayerConfig bold;
  bold.min_link_prr = 0.2;
  bold.min_remaining_periods = 0.0;
  bold.quantile_z = 0.0;
  for (const std::uint32_t period : {20u, 5u}) {
    for (const std::uint32_t slots_per_period : {1u, 3u}) {
      for (const bool perturbed : {false, true}) {
        for (const bool is_bold : {false, true}) {
          for (const bool compact : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << "period " << period << " k " << slots_per_period
                         << " perturbed " << perturbed << " bold " << is_bold
                         << " compact " << compact);
            sim::SimConfig config;
            config.num_packets = 8;
            config.duty = DutyCycle{period};
            config.slots_per_period = slots_per_period;
            config.packet_spacing = perturbed ? 3 : 1;
            config.seed = 29;
            config.max_slots = 400'000;
            config.compact_time = compact;
            if (perturbed) {
              config.capture_ratio = 2.0;
              config.sync_miss_prob = 0.05;
              config.perturbations.node_failures.push_back(
                  sim::NodeFailure{13, 40});
              config.perturbations.burst = sim::LinkBurst{0.5, 50, 25, 200};
              config.max_slots = 20'000;
            }
            const CrossLayerConfig xconf =
                is_bold ? bold : CrossLayerConfig{};
            ReferenceXlayer reference(xconf);
            test::Recorder reference_log(reference);
            const auto expected =
                sim::run_simulation(topo, config, reference_log);
            CrossLayerFlooding indexed(xconf);
            test::Recorder indexed_log(indexed);
            const auto actual = sim::run_simulation(topo, config, indexed_log);
            EXPECT_EQ(indexed_log.log, reference_log.log);
            test::expect_identical(expected, actual);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace ldcf::protocols
