#include "ldcf/protocols/dbao.hpp"

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

sim::SimResult run_dbao(const topology::Topology& topo,
                        const DbaoConfig& dconf, std::uint32_t packets = 8,
                        std::uint64_t seed = 13) {
  sim::SimConfig config;
  config.num_packets = packets;
  config.duty = DutyCycle{10};
  config.seed = seed;
  config.max_slots = 3'000'000;
  DbaoFlooding proto(dconf);
  return sim::run_simulation(topo, config, proto);
}

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

TEST(Dbao, FlagsAndName) {
  DbaoFlooding proto;
  EXPECT_EQ(proto.name(), "dbao");
  EXPECT_TRUE(proto.wants_overhearing());
  EXPECT_FALSE(proto.collision_free_oracle());
  DbaoConfig config;
  config.overhearing = false;
  DbaoFlooding muted(config);
  EXPECT_FALSE(muted.wants_overhearing());
}

TEST(Dbao, CoversWithDefaults) {
  const auto topo = trace();
  const auto res = run_dbao(topo, DbaoConfig{});
  EXPECT_TRUE(res.metrics.all_covered);
}

TEST(Dbao, DeterministicBackoffReducesCollisions) {
  const auto topo = trace();
  DbaoConfig with;
  DbaoConfig without;
  without.deterministic_backoff = false;
  const auto res_with = run_dbao(topo, with);
  const auto res_without = run_dbao(topo, without);
  ASSERT_TRUE(res_with.metrics.all_covered);
  ASSERT_TRUE(res_without.metrics.all_covered);
  EXPECT_LT(res_with.metrics.channel.collisions,
            res_without.metrics.channel.collisions);
}

TEST(Dbao, TinyCsRangeLeavesHiddenTerminals) {
  const auto topo = trace();
  DbaoConfig tiny;
  tiny.cs_range_factor = 0.0;  // only decodable links carrier-sense.
  const auto res = run_dbao(topo, tiny);
  ASSERT_TRUE(res.metrics.all_covered);
  // With CS crippled, hidden-terminal collisions must appear.
  EXPECT_GT(res.metrics.channel.collisions, 0u);
}

TEST(Dbao, OverhearingCutsDuplicates) {
  const auto topo = trace();
  DbaoConfig with;
  DbaoConfig without;
  without.overhearing = false;
  const auto res_with = run_dbao(topo, with, 12);
  const auto res_without = run_dbao(topo, without, 12);
  ASSERT_TRUE(res_with.metrics.all_covered);
  ASSERT_TRUE(res_without.metrics.all_covered);
  // Overhearing both delivers free copies and retires pending pairs; with
  // it off, neither may happen. Attempt counts are noisy across the two
  // different channel trajectories, so allow 10% slack.
  EXPECT_GT(res_with.metrics.channel.overhear_deliveries, 0u);
  EXPECT_EQ(res_without.metrics.channel.overhear_deliveries, 0u);
  EXPECT_LE(static_cast<double>(res_with.metrics.channel.attempts),
            1.10 * static_cast<double>(res_without.metrics.channel.attempts));
}

TEST(Dbao, MoreResponsibleSendersMoreRedundancy) {
  const auto topo = trace();
  DbaoConfig narrow;
  narrow.responsible_senders = 1;
  DbaoConfig wide;
  wide.responsible_senders = 6;
  const auto res_narrow = run_dbao(topo, narrow);
  const auto res_wide = run_dbao(topo, wide);
  ASSERT_TRUE(res_narrow.metrics.all_covered);
  ASSERT_TRUE(res_wide.metrics.all_covered);
  EXPECT_LT(res_narrow.metrics.channel.attempts,
            res_wide.metrics.channel.attempts);
}

TEST(Dbao, WorksOnCompleteGraphWithoutPositions) {
  // make_complete puts every node at the origin; the distance-based CS
  // logic must degrade gracefully (everyone carrier-senses everyone).
  const auto topo = topology::make_complete(12, 0.8);
  const auto res = run_dbao(topo, DbaoConfig{}, 4);
  EXPECT_TRUE(res.metrics.all_covered);
  EXPECT_EQ(res.metrics.channel.collisions, 0u);
}

// DBAO as it was before responsibility entries carried their PRR and wake
// phase: per-run nested in-link vectors, a Topology::prr search and a
// schedule lookup on every pend and candidate, an all-pairs contention scan
// and two vector<bool>(N) per slot. Kept verbatim as the executable
// specification the rewritten DbaoFlooding must match.
class ReferenceDbao final : public PendingSetProtocol {
 public:
  explicit ReferenceDbao(const DbaoConfig& config) : config_(config) {}

  [[nodiscard]] std::string_view name() const override { return "dbao-ref"; }
  [[nodiscard]] bool wants_overhearing() const override {
    return config_.overhearing;
  }
  [[nodiscard]] SlotIndex next_busy_slot(SlotIndex from) const override {
    return pending_next_busy_slot(from);
  }

  void initialize(const SimContext& ctx) override {
    PendingSetProtocol::initialize(ctx);
    const auto& topo = *ctx.topo;
    double max_link = 0.0;
    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
      for (const topology::Link& link : topo.neighbors(u)) {
        max_link = std::max(max_link,
                            topology::distance(topo.position(u),
                                               topo.position(link.to)));
      }
    }
    cs_range_ = config_.cs_range_factor * max_link;
    const auto hop = topo.hop_distances(ctx.source);
    std::vector<std::vector<topology::Link>> in_links(topo.num_nodes());
    for (NodeId u = 0; u < topo.num_nodes(); ++u) {
      for (const topology::Link& link : topo.neighbors(u)) {
        in_links[link.to].push_back(topology::Link{u, link.prr});
      }
    }
    responsible_.assign(topo.num_nodes(), {});
    for (NodeId r = 0; r < topo.num_nodes(); ++r) {
      if (r == ctx.source) continue;
      auto& candidates = in_links[r];
      auto reachable_end = std::partition(
          candidates.begin(), candidates.end(),
          [&](const topology::Link& l) { return hop[l.to] != kNeverSlot; });
      auto begin = candidates.begin();
      auto end = reachable_end == candidates.begin() ? candidates.end()
                                                     : reachable_end;
      std::sort(begin, end,
                [](const topology::Link& a, const topology::Link& b) {
                  return a.prr > b.prr || (a.prr == b.prr && a.to < b.to);
                });
      const std::size_t keep =
          std::min<std::size_t>(config_.responsible_senders,
                                static_cast<std::size_t>(end - begin));
      for (std::size_t i = 0; i < keep; ++i) {
        responsible_[begin[static_cast<std::ptrdiff_t>(i)].to].push_back(r);
      }
    }
    topology::Tree built;
    if (ctx.energy_tree == nullptr) {
      built = topology::build_etx_tree(topo, ctx.source);
    }
    const topology::Tree& tree =
        ctx.energy_tree != nullptr ? *ctx.energy_tree : built;
    for (NodeId r = 0; r < topo.num_nodes(); ++r) {
      const NodeId parent = tree.parent[r];
      if (parent == kNoNode) continue;
      auto& served = responsible_[parent];
      if (std::find(served.begin(), served.end(), r) == served.end()) {
        served.push_back(r);
      }
    }
    deferred_.clear();
  }

  void propose_transmissions(SlotIndex slot,
                             std::span<const NodeId> /*active_receivers*/,
                             std::vector<TxIntent>& out) override {
    const auto& topo = *ctx().topo;
    deferred_.clear();
    struct Candidate {
      TxIntent intent;
      double prr = 0.0;
      bool suppressed = false;
    };
    std::vector<Candidate> candidates;
    for (const NodeId node : pending_senders_at(slot)) {
      if (const auto intent = select_fcfs(node, slot)) {
        const double prr = topo.prr(intent->sender, intent->receiver).value();
        candidates.push_back(Candidate{*intent, prr, false});
      }
    }
    for (std::size_t i = 0;
         config_.deterministic_backoff && i < candidates.size(); ++i) {
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (i == j) continue;
        const Candidate& a = candidates[i];
        const Candidate& b = candidates[j];
        if (a.intent.receiver != b.intent.receiver) continue;
        const bool b_ranks_higher =
            b.prr > a.prr ||
            (b.prr == a.prr && b.intent.sender < a.intent.sender);
        if (!b_ranks_higher) continue;
        if (carrier_sensed(a.intent.sender, b.intent.sender)) {
          candidates[i].suppressed = true;
          deferred_.emplace_back(a.intent.sender, a.intent.receiver);
          break;
        }
      }
    }
    std::vector<bool> committed_tx(topo.num_nodes(), false);
    std::vector<bool> reserved_rx(topo.num_nodes(), false);
    for (Candidate& c : candidates) {
      if (c.suppressed) continue;
      if (reserved_rx[c.intent.sender] || committed_tx[c.intent.receiver]) {
        c.suppressed = true;
        deferred_.emplace_back(c.intent.sender, c.intent.receiver);
        continue;
      }
      committed_tx[c.intent.sender] = true;
      reserved_rx[c.intent.receiver] = true;
    }
    for (const Candidate& c : candidates) {
      if (!c.suppressed) out.push_back(c.intent);
    }
  }

  void on_outcome(const TxResult& result, SlotIndex slot) override {
    PendingSetProtocol::on_outcome(result, slot);
    if (result.outcome != TxOutcome::kDelivered) return;
    for (const auto& [deferred_sender, receiver] : deferred_) {
      if (receiver == result.intent.receiver) {
        unpend(deferred_sender, result.intent.packet, receiver);
      }
    }
  }

  void on_overhear(NodeId listener, NodeId sender, PacketId packet,
                   SlotIndex /*slot*/) override {
    unpend(listener, packet, sender);
  }

 protected:
  void enqueue_forwarding(NodeId node, PacketId packet, NodeId from) override {
    for (const NodeId r : responsible_[node]) {
      if (r == from) continue;
      pend(node, packet, r);
    }
  }

 private:
  [[nodiscard]] bool carrier_sensed(NodeId a, NodeId b) const {
    const auto& topo = *ctx().topo;
    if (topo.has_link(a, b) || topo.has_link(b, a)) return true;
    return topology::distance(topo.position(a), topo.position(b)) <=
           cs_range_;
  }

  DbaoConfig config_{};
  double cs_range_ = 0.0;
  std::vector<std::vector<NodeId>> responsible_;
  std::vector<std::pair<NodeId, NodeId>> deferred_;
};

struct DiffCase {
  std::uint32_t period;
  std::uint32_t slots_per_period;
  DbaoConfig dbao;
  std::uint32_t packet_spacing;
  bool perturbed;
};

// Runs the reference and the rewritten protocol on one case, in dense and
// in compact time, and requires identical intents slot by slot and
// identical results. Perturbed cases kill several nodes and miss 5 % of
// the unicasts.
void expect_matches_reference(const topology::Topology& topo,
                              const DiffCase& c) {
  sim::SimConfig config;
  config.num_packets = 8;
  config.duty = DutyCycle{c.period};
  config.slots_per_period = c.slots_per_period;
  config.packet_spacing = c.packet_spacing;
  config.seed = 31;
  config.max_slots = 400'000;
  if (c.perturbed) {
    config.capture_ratio = 2.0;
    config.sync_miss_prob = 0.05;
    config.perturbations.node_failures = {
        sim::NodeFailure{13, 20}, sim::NodeFailure{27, 45},
        sim::NodeFailure{44, 90}};
    config.perturbations.burst = sim::LinkBurst{0.5, 50, 25, 200};
    config.max_slots = 20'000;
  }
  for (const bool compact : {false, true}) {
    SCOPED_TRACE(compact ? "compact" : "dense");
    config.compact_time = compact;
    ReferenceDbao reference(c.dbao);
    test::Recorder reference_log(reference);
    const auto expected = sim::run_simulation(topo, config, reference_log);
    DbaoFlooding rewritten(c.dbao);
    test::Recorder rewritten_log(rewritten);
    const auto actual = sim::run_simulation(topo, config, rewritten_log);
    EXPECT_FALSE(reference_log.log.empty());
    EXPECT_EQ(rewritten_log.log, reference_log.log);
    test::expect_identical(expected, actual);
  }
}

TEST(Dbao, PrecomputedTargetsMatchTheReferenceAcrossDuties) {
  const auto topo = trace();
  // 1, 5, 20 and 100 % duty, faults on and off, packet spacing 1 and 3.
  for (const std::uint32_t period : {100u, 20u, 5u, 1u}) {
    for (const bool perturbed : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "period " << period
                                        << " perturbed " << perturbed);
      expect_matches_reference(
          topo,
          DiffCase{period, 1, DbaoConfig{}, perturbed ? 3u : 1u, perturbed});
    }
  }
}

TEST(Dbao, PrecomputedTargetsMatchTheReferenceAcrossKnobs) {
  const auto topo = trace();
  std::vector<DbaoConfig> configs;
  for (const std::size_t senders : {1u, 2u, 4u}) {
    DbaoConfig c;
    c.responsible_senders = senders;
    configs.push_back(c);
  }
  DbaoConfig small_cs;  // hidden terminals: only close or linked pairs sense.
  small_cs.cs_range_factor = 0.4;
  configs.push_back(small_cs);
  DbaoConfig no_cs;
  no_cs.cs_range_factor = 0.0;
  configs.push_back(no_cs);
  DbaoConfig no_backoff;
  no_backoff.deterministic_backoff = false;
  configs.push_back(no_backoff);
  DbaoConfig deaf;
  deaf.overhearing = false;
  configs.push_back(deaf);
  for (const DbaoConfig& dconf : configs) {
    // Each setting runs clean on single-slot schedules and perturbed on
    // multi-slot ones (k = 3 of T = 10: receivers wake at three phases).
    for (const std::uint32_t k : {1u, 3u}) {
      const bool perturbed = k == 3;
      SCOPED_TRACE(::testing::Message()
                   << "senders " << dconf.responsible_senders << " cs "
                   << dconf.cs_range_factor << " backoff "
                   << dconf.deterministic_backoff << " overhearing "
                   << dconf.overhearing << " k " << k << " perturbed "
                   << perturbed);
      expect_matches_reference(
          topo, DiffCase{10, k, dconf, perturbed ? 4u : 1u, perturbed});
    }
  }
}

}  // namespace
}  // namespace ldcf::protocols
