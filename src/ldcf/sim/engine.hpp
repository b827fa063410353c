// The staged slot-loop engine behind run_simulation.
//
// SimEngine decomposes the old monolithic loop into named stages executed
// in a fixed order each slot:
//
//   faults -> generation -> intent collection -> sync-miss -> channel
//          -> energy -> apply -> coverage
//
// All per-slot scratch lives in a SlotWorkspace that is allocated once per
// engine and recycled, so the steady-state loop performs no O(N) heap
// allocations. Everything the engine reports is collected through the
// SimObserver interface: MetricsCollector (below) is the built-in observer
// that assembles RunMetrics/ActivityTally, and callers may attach one more
// observer (e.g. TraceObserver) to the same event stream.
//
// The run is fully deterministic given (topology, config.seed): schedules,
// channel draws and protocol substreams all derive from the one seed, and
// repeated run() calls on one engine produce identical results.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ldcf/common/rng.hpp"
#include "ldcf/common/types.hpp"
#include "ldcf/schedule/working_schedule.hpp"
#include "ldcf/sim/channel.hpp"
#include "ldcf/sim/energy.hpp"
#include "ldcf/sim/flooding_protocol.hpp"
#include "ldcf/sim/metrics.hpp"
#include "ldcf/sim/node_state.hpp"
#include "ldcf/sim/observer.hpp"
#include "ldcf/sim/perturbation.hpp"
#include "ldcf/sim/profiler.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::topology {
struct Tree;  // topology/tree.hpp; SimConfig only holds a shared_ptr.
}

namespace ldcf::sim {

struct SimConfig {
  DutyCycle duty{20};                  ///< default: 5% duty cycle.
  std::uint32_t slots_per_period = 1;  ///< active slots per period (k/T duty).
  NodeId source = 0;                   ///< flooding source node.
  std::uint32_t num_packets = 100;     ///< M (paper default).
  std::uint32_t packet_spacing = 1;    ///< slots between generations.
  double coverage_fraction = 0.99;     ///< paper's 99% delivery rule.
  std::uint64_t seed = 1;
  std::uint64_t max_slots = 10'000'000;  ///< safety stop.
  EnergyModel energy{};
  Perturbations perturbations{};  ///< fault/dynamics injection (default none).
  /// Capture effect threshold (see ChannelConfig::capture_ratio); 0 = off.
  double capture_ratio = 0.0;
  /// Imperfect local synchronization: probability that a unicast misses the
  /// receiver's wakeup because the sender's schedule estimate drifted
  /// (paper §III-B assumes 0; [26][27] motivate small non-zero values).
  double sync_miss_prob = 0.0;
  /// How channel loss draws are realized (see ChannelRngMode). The default
  /// kSequential preserves every golden fingerprint; kSlotKeyed makes the
  /// draws order-independent at the cost of a different — statistically
  /// equivalent — realization.
  ChannelRngMode channel_rng = ChannelRngMode::kSequential;
  /// Time the engine's stages (see profiler.hpp); never affects simulation
  /// results.
  bool profiling = false;
  /// Compact time scale (paper §III): fast-forward over slots where no
  /// packet generation, fault, or protocol activity can occur, instead of
  /// executing them one by one. Bit-identical to the dense loop — the
  /// differential suite (tests/sim/test_compact_differential.cpp) proves it
  /// across protocols, duties, perturbations and thread counts — so it
  /// defaults on; set false to force the dense slot-by-slot loop. Observers
  /// that demand every slot (wants_every_slot) override this to dense for
  /// that run.
  bool compact_time = true;
  /// Span timeline collector (obs/timeline.hpp), or nullptr for none. When
  /// attached, every executed stage — the channel kernel's gather/draw/apply
  /// phases included — records a span named after its profiler stage, from
  /// the same clock pair as the stage totals; protocol setup records one
  /// "setup" span before the slot loop. Like `profiling`, tracing
  /// never affects simulation results: with both off, a stage probe is one
  /// branch, zero clock reads, zero allocation.
  obs::Timeline* timeline = nullptr;
  /// Pre-built working schedules supplied by a caching caller (the sweep
  /// service memoizes them across identical jobs). Must equal what the
  /// engine would derive itself — derive_schedule_set(topo, config) builds
  /// exactly that — and is validated against num_nodes/duty/slots at
  /// construction. The engine still burns the schedule substream fork so
  /// the channel and protocol seeds are unchanged: a run with an injected
  /// ScheduleSet is bit-identical to a cold one. nullptr = build normally.
  std::shared_ptr<const schedule::ScheduleSet> shared_schedules;
  /// Pre-built OF energy tree (topology::build_etx_tree(topo, source)),
  /// handed to protocols through SimContext::energy_tree. The build is a
  /// pure function of the topology and source — no RNG involved — so
  /// injection is trivially bit-identical. nullptr = protocols build their
  /// own.
  std::shared_ptr<const topology::Tree> shared_tree;
};

struct SimResult {
  RunMetrics metrics;
  EnergyReport energy;
  ActivityTally tally;
  StageProfile profile;  ///< all-zero unless SimConfig::profiling.
};

/// The built-in observer: folds the engine's event stream into the
/// RunMetrics and ActivityTally every caller gets back. Kept public so the
/// accounting rules live next to the observer contract they exercise.
class MetricsCollector final : public SimObserver {
 public:
  MetricsCollector(std::size_t num_nodes, std::uint32_t num_packets,
                   std::uint64_t coverage_target);

  /// Engine-fed (not an observer event): an active node spent this slot
  /// listening rather than transmitting.
  void note_listen(NodeId node) { ++tally.active_slots[node]; }

  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_tx_result(const TxResult& result, SlotIndex slot) override;
  void on_delivery(NodeId node, PacketId packet, NodeId from, bool overheard,
                   SlotIndex slot) override;
  void on_overhear(NodeId listener, NodeId sender, PacketId packet, bool fresh,
                   SlotIndex slot) override;
  void on_packet_covered(PacketId packet, SlotIndex covered_at) override;

  RunMetrics metrics;
  ActivityTally tally;
};

/// Per-slot scratch buffers, allocated once per engine and reused so the
/// steady-state slot loop stays allocation-free.
struct SlotWorkspace {
  std::vector<NodeId> active;        ///< filtered copy when nodes have died.
  std::vector<TxIntent> intents;     ///< this slot's surviving proposals.
  std::vector<TxIntent> sync_missed; ///< unicasts that hit a stale wakeup.
  std::vector<TxIntent> ghosts;      ///< unicasts addressed to dead nodes.
  SlotResolution resolution;         ///< channel output for the slot.
  std::vector<std::uint8_t> transmitting;  ///< node-indexed, wiped per slot.
};

/// Slot-stepped low-duty-cycle flooding engine. Construction validates the
/// config and builds the schedules once; run() replays the identical
/// deterministic simulation for any protocol/observer combination.
class SimEngine {
 public:
  /// Throws InvalidArgument on a malformed config (bad packet counts,
  /// coverage fraction, source, or fault injection).
  SimEngine(const topology::Topology& topo, const SimConfig& config);

  /// Run `protocol` to coverage (or max_slots). `observer`, when non-null,
  /// receives every engine event alongside the built-in metrics collector.
  /// Throws InvalidArgument on a malformed intent (non-link, inactive
  /// receiver, sender without the packet, duplicate sender) — protocol
  /// bugs should fail loudly.
  [[nodiscard]] SimResult run(FloodingProtocol& protocol,
                              SimObserver* observer = nullptr);

 private:
  // Stages, in slot order. Each operates on ws_ and the per-run state;
  // `collector` is the built-in observer, `observer` the optional extra.
  void stage_faults(SlotIndex t);
  [[nodiscard]] std::span<const NodeId> stage_active(SlotIndex t);
  void stage_generation(SlotIndex t);
  void stage_intents(SlotIndex t, std::span<const NodeId> active);
  void stage_sync_miss();
  void stage_channel(SlotIndex t, std::span<const NodeId> active);
  void stage_energy(SlotIndex t, std::span<const NodeId> active);
  void stage_apply(SlotIndex t);
  void stage_coverage(SlotIndex t);

  // Compact-time core. next_event_slot: earliest slot >= t at which
  // anything can happen (generation, fault, or protocol activity per
  // next_busy_slot). fast_forward: settle per-slot accounting for the
  // provably idle gap [from, to) in closed form — the only slot-indexed
  // state accrued in an idle slot is the listen tally, folded into
  // skipped_by_phase_ and applied per node at run end (listen_credit).
  [[nodiscard]] SlotIndex next_event_slot(SlotIndex t) const;
  void fast_forward(SlotIndex from, SlotIndex to);
  [[nodiscard]] std::uint64_t listen_credit(NodeId n) const;

  /// Deliver one event to the collector and the optional observer. The
  /// lambda is generic so the collector call binds to the final concrete
  /// type (devirtualized and inlined); only an attached observer pays
  /// virtual dispatch.
  template <typename Fn>
  void notify(Fn&& fn) {
    fn(*collector_);
    if (observer_ != nullptr) fn(*observer_);
  }

  const topology::Topology& topo_;
  SimConfig config_;
  Rng master_;
  std::shared_ptr<const schedule::ScheduleSet> schedules_;
  std::uint64_t channel_seed_ = 0;
  std::uint64_t protocol_seed_ = 0;
  std::uint64_t coverage_target_ = 0;
  std::vector<NodeFailure> deaths_;  ///< sorted by at_slot.

  Channel channel_;
  PossessionState possession_;
  SlotWorkspace ws_;
  StageProfiler profiler_;

  // Per-run state, reset by run().
  FloodingProtocol* protocol_ = nullptr;
  MetricsCollector* collector_ = nullptr;
  SimObserver* observer_ = nullptr;
  ChannelConfig channel_config_{};
  Rng channel_rng_{0};
  std::vector<std::uint8_t> dead_;
  std::size_t next_death_ = 0;
  std::uint64_t alive_sensors_ = 0;
  std::vector<std::uint64_t> dead_holders_;
  std::vector<PacketId> uncovered_;  ///< ascending; compacted as packets cover.
  std::uint64_t covered_count_ = 0;
  std::uint32_t generated_ = 0;
  // Compact-time accounting: slots skipped so far per schedule phase, and
  // each dead node's listen credit frozen at its death slot (skipped slots
  // after death must not count as listening).
  std::vector<std::uint64_t> skipped_by_phase_;
  std::vector<std::uint64_t> frozen_credit_;
  // Live nodes per schedule phase, maintained across deaths; handed to
  // observers with on_idle_gap so windowed listen accounting can settle a
  // skipped gap in closed form (constant within a gap: fast-forward never
  // crosses a pending death).
  std::vector<std::uint64_t> live_by_phase_;
};

/// The ScheduleSet a SimEngine derives from (topo, config): the schedule
/// substream is the master seed's first fork. The engine builds its own
/// through this function, so a cache may build the artifact once, share it
/// via SimConfig::shared_schedules across any number of engines, and every
/// run stays bit-identical to a cold one.
[[nodiscard]] schedule::ScheduleSet derive_schedule_set(
    const topology::Topology& topo, const SimConfig& config);

}  // namespace ldcf::sim
