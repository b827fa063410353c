#include "ldcf/protocols/opt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "ldcf/sim/simulator.hpp"
#include "ldcf/topology/generators.hpp"
#include "ldcf/topology/tree.hpp"
#include "protocol_diff.hpp"

namespace ldcf::protocols {
namespace {

using topology::Point2D;
using topology::Topology;

TEST(Opt, OracleFlagsAreSet) {
  OptFlooding opt;
  EXPECT_TRUE(opt.collision_free_oracle());
  // The oracle exploits every reception opportunity, including overhearing.
  EXPECT_TRUE(opt.wants_overhearing());
  EXPECT_EQ(opt.name(), "opt");
}

TEST(Opt, NeverProducesDuplicatesOrCollisions) {
  const auto topo = topology::make_greenorbs_like(4);
  sim::SimConfig config;
  config.num_packets = 10;
  config.seed = 21;
  OptFlooding opt;
  const auto res = sim::run_simulation(topo, config, opt);
  EXPECT_TRUE(res.metrics.all_covered);
  EXPECT_EQ(res.metrics.channel.collisions, 0u);
  EXPECT_EQ(res.metrics.channel.receiver_busy, 0u);
  // Receiver-driven matching may unicast to a node that just overheard the
  // packet (the oracle's knowledge is end-of-slot); those land as the only
  // duplicates. Attempts split exactly into fresh unicast copies, losses
  // and that duplicate sliver.
  std::uint64_t fresh = 0;
  for (const auto& rec : res.metrics.packets) fresh += rec.deliveries;
  EXPECT_EQ(res.metrics.channel.attempts,
            (fresh - res.metrics.channel.overhear_deliveries) +
                res.metrics.channel.losses + res.metrics.channel.duplicates);
  EXPECT_LT(res.metrics.channel.duplicates,
            res.metrics.channel.overhear_deliveries + 1);
}

TEST(Opt, ServesReceiverFromBestHolderNeighbor) {
  // 0 -> 1 direct (prr 0.2) or via 2 (0 -> 2 prr 1.0, 2 -> 1 prr 1.0).
  // The oracle must use the good relay once 2 holds the packet, not hammer
  // the bad direct link; with everything perfect, each unicast succeeds
  // first try.
  Topology topo{std::vector<Point2D>(3)};
  topo.add_symmetric_link(0, 1, 0.2);
  topo.add_symmetric_link(0, 2, 1.0);
  topo.add_symmetric_link(2, 1, 1.0);
  sim::SimConfig config;
  config.num_packets = 1;
  config.coverage_fraction = 1.0;
  config.duty = DutyCycle{4};
  config.seed = 17;
  OptFlooding opt;
  const auto res = sim::run_simulation(topo, config, opt);
  ASSERT_TRUE(res.metrics.all_covered);
  // With at most one lossy direct attempt tolerated, total attempts stay
  // small; a protocol stuck on the 0.2 link would need ~5.
  EXPECT_LE(res.metrics.channel.attempts,
            res.metrics.packets[0].deliveries + 2);
}

TEST(Opt, AsymmetricOnlyInLinkStillServes) {
  // Node 2 is reachable only through a one-way link 1 -> 2 (no 2 -> 1):
  // the oracle must find the in-neighbor even though 2's out-neighbor list
  // does not contain it.
  Topology topo{std::vector<Point2D>(3)};
  topo.add_symmetric_link(0, 1, 1.0);
  topo.add_link(1, 2, 1.0);  // one-way.
  sim::SimConfig config;
  config.num_packets = 1;
  config.coverage_fraction = 1.0;
  config.duty = DutyCycle{3};
  config.seed = 2;
  OptFlooding opt;
  const auto res = sim::run_simulation(topo, config, opt);
  EXPECT_TRUE(res.metrics.all_covered);
}

TEST(Opt, FcfsServesOldestPacketFirst) {
  // Two packets over one perfect link: packet 0 must complete before 1.
  Topology topo{std::vector<Point2D>(2)};
  topo.add_symmetric_link(0, 1, 1.0);
  sim::SimConfig config;
  config.num_packets = 2;
  config.coverage_fraction = 1.0;
  config.duty = DutyCycle{5};
  config.seed = 8;
  OptFlooding opt;
  const auto res = sim::run_simulation(topo, config, opt);
  ASSERT_TRUE(res.metrics.all_covered);
  EXPECT_LT(res.metrics.packets[0].covered_at,
            res.metrics.packets[1].covered_at);
}

// OPT as it was before the frontier count and the static receiver order:
// every slot recounts each active receiver's viable senders, re-sorts the
// receivers and scans packets x in-links for each. Kept verbatim as the
// executable specification the rewritten OptFlooding must match.
class ReferenceOpt final : public PendingSetProtocol {
 public:
  explicit ReferenceOpt(const OptConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return "opt-ref"; }
  [[nodiscard]] bool collision_free_oracle() const override { return true; }
  [[nodiscard]] bool wants_overhearing() const override { return true; }
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    return unsat_cal_.next_busy_slot(from);
  }

  void initialize(const SimContext& ctx) override {
    PendingSetProtocol::initialize(ctx);
    first_missing_.assign(ctx.topo->num_nodes(), 0);
    generated_ = 0;
    held_.assign(ctx.topo->num_nodes(), 0);
    satisfied_.assign(ctx.topo->num_nodes(), 1);
    unsat_cal_.reset(ctx.duty.period);
    in_neighbors_.assign(ctx.topo->num_nodes(), {});
    best_in_prr_.assign(ctx.topo->num_nodes(), 0.0);
    topology::Tree built;
    if (ctx.energy_tree == nullptr) {
      built = topology::build_etx_tree(*ctx.topo, ctx.source);
    }
    const topology::Tree& tree =
        ctx.energy_tree != nullptr ? *ctx.energy_tree : built;
    for (NodeId u = 0; u < ctx.topo->num_nodes(); ++u) {
      for (const topology::Link& link : ctx.topo->neighbors(u)) {
        in_neighbors_[link.to].push_back(topology::Link{u, link.prr});
        if (tree.cost[u] < tree.cost[link.to]) {
          best_in_prr_[link.to] = std::max(best_in_prr_[link.to], link.prr);
        }
      }
    }
  }

  void on_generate(PacketId packet, SlotIndex slot) override {
    PendingSetProtocol::on_generate(packet, slot);
    generated_ = packet + 1;
    ++held_[ctx().source];
    const auto num_nodes = static_cast<NodeId>(satisfied_.size());
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (satisfied_[n] == 0 || held_[n] == generated_) continue;
      satisfied_[n] = 0;
      for (const std::uint32_t phase : ctx().schedules->active_slots(n)) {
        unsat_cal_.add(phase);
      }
    }
  }

  void on_delivery(NodeId receiver, PacketId packet, NodeId from,
                   SlotIndex slot) override {
    PendingSetProtocol::on_delivery(receiver, packet, from, slot);
    ++held_[receiver];
    if (satisfied_[receiver] == 0 && held_[receiver] == generated_) {
      satisfied_[receiver] = 1;
      for (const std::uint32_t phase :
           ctx().schedules->active_slots(receiver)) {
        unsat_cal_.remove(phase);
      }
    }
  }

  void propose_transmissions(SlotIndex /*slot*/,
                             std::span<const NodeId> active_receivers,
                             std::vector<TxIntent>& out) override {
    const auto& topo = *ctx().topo;
    std::vector<bool> sending(topo.num_nodes(), false);
    std::vector<bool> receiving(topo.num_nodes(), false);
    std::vector<std::pair<std::uint32_t, NodeId>> order;
    order.reserve(active_receivers.size());
    for (const NodeId r : active_receivers) {
      PacketId& cursor = first_missing_[r];
      while (cursor < generated_ && node_has(r, cursor)) ++cursor;
      std::uint32_t options = 0;
      const double floor_prr = config_.quality_floor_factor * best_in_prr_[r];
      for (const topology::Link& in : in_neighbors_[r]) {
        if (in.prr >= floor_prr) ++options;
      }
      order.emplace_back(options, r);
    }
    std::sort(order.begin(), order.end());

    for (const auto& [options, r] : order) {
      if (sending[r]) continue;
      const PacketId cursor = first_missing_[r];
      TxIntent chosen;
      double best_prr = -1.0;
      const double floor_prr = config_.quality_floor_factor * best_in_prr_[r];
      for (PacketId p = cursor; p < generated_ && best_prr < 0.0; ++p) {
        if (node_has(r, p)) continue;
        for (const topology::Link& in : in_neighbors_[r]) {
          if (sending[in.to] || receiving[in.to]) continue;
          if (!node_has(in.to, p)) continue;
          if (in.prr < floor_prr) continue;
          if (in.prr > best_prr) {
            best_prr = in.prr;
            chosen = TxIntent{in.to, r, p};
          }
        }
      }
      if (best_prr > 0.0) {
        sending[chosen.sender] = true;
        receiving[r] = true;
        out.push_back(chosen);
      }
    }
  }

 protected:
  void enqueue_forwarding(NodeId /*node*/, PacketId /*packet*/,
                          NodeId /*from*/) override {}

 private:
  OptConfig config_{};
  std::vector<PacketId> first_missing_;
  std::vector<std::vector<topology::Link>> in_neighbors_;
  std::vector<double> best_in_prr_;
  PacketId generated_ = 0;
  std::vector<PacketId> held_;
  std::vector<std::uint8_t> satisfied_;
  schedule::PhaseCalendar unsat_cal_;
};

topology::Topology clustered() {
  topology::ClusterConfig config;
  config.base.num_sensors = 60;
  config.base.area_side_m = 260.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 5;
  config.num_clusters = 6;
  config.cluster_sigma_m = 30.0;
  return topology::make_clustered(config);
}

struct DiffCase {
  std::uint32_t period;
  std::uint32_t slots_per_period;
  double quality_floor_factor;
  std::uint32_t packet_spacing;
  bool perturbed;
};

// Runs the reference and the rewritten oracle on one case, in dense and in
// compact time, and requires identical intents slot by slot and identical
// results. Perturbed cases kill several nodes (the engine then hands the
// protocol dead-filtered receiver lists) and miss 5 % of the unicasts.
void expect_matches_reference(const topology::Topology& topo,
                              const DiffCase& c) {
  sim::SimConfig config;
  config.num_packets = 8;
  config.duty = DutyCycle{c.period};
  config.slots_per_period = c.slots_per_period;
  config.packet_spacing = c.packet_spacing;
  config.seed = 37;
  config.max_slots = 400'000;
  if (c.perturbed) {
    config.sync_miss_prob = 0.05;
    config.perturbations.node_failures = {
        sim::NodeFailure{13, 20}, sim::NodeFailure{27, 45},
        sim::NodeFailure{44, 90}};
    config.max_slots = 20'000;
    config.perturbations.burst = sim::LinkBurst{0.5, 50, 25, 200};
  }
  const OptConfig oconf{c.quality_floor_factor};
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "dense");
    config.compact_time = compact;
    ReferenceOpt reference(oconf);
    test::Recorder reference_log(reference);
    const auto expected = sim::run_simulation(topo, config, reference_log);
    OptFlooding rewritten(oconf);
    test::Recorder rewritten_log(rewritten);
    const auto actual = sim::run_simulation(topo, config, rewritten_log);
    EXPECT_FALSE(reference_log.log.empty());
    EXPECT_EQ(rewritten_log.log, reference_log.log);
    test::expect_identical(expected, actual);
  }
}

TEST(Opt, FrontierProposalsMatchTheFullScanAcrossDuties) {
  const auto topo = clustered();
  // 1, 5, 20 and 100 % duty, faults on and off, packet spacing 1 and 3.
  for (const std::uint32_t period : {100u, 20u, 5u, 1u}) {
    for (const bool perturbed : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "period " << period
                                        << " perturbed " << perturbed);
      expect_matches_reference(
          topo, DiffCase{period, 1, 0.3, perturbed ? 3u : 1u, perturbed});
    }
  }
}

TEST(Opt, FrontierProposalsMatchTheFullScanAcrossKnobs) {
  const auto topo = clustered();
  // Quality floors from pure greedy to best-link-only, with single- and
  // multi-slot schedules (k = 3 of T = 10: receivers wake at three phases).
  for (const double factor : {0.0, 0.3, 1.0}) {
    for (const std::uint32_t k : {1u, 3u}) {
      for (const bool perturbed : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "floor " << factor << " k " << k
                                          << " perturbed " << perturbed);
        expect_matches_reference(
            topo, DiffCase{10, k, factor, perturbed ? 4u : 1u, perturbed});
      }
    }
  }
}

}  // namespace
}  // namespace ldcf::protocols
