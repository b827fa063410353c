#include "ldcf/sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/schedule/calendar_queue.hpp"

namespace ldcf::sim {

namespace {

// Counter tracks are sampled every kCounterStride executed slots, plus once
// after the loop. One sample is 12 records, so the timeline's default
// 16k-record counter lane keeps the latest ~1365 samples: ~87k executed
// slots before the ring starts dropping the oldest.
constexpr std::uint64_t kCounterStride = 64;

const SimConfig& validate_config(const topology::Topology& topo,
                                 const SimConfig& config) {
  LDCF_REQUIRE(config.num_packets >= 1, "need at least one packet");
  LDCF_REQUIRE(config.packet_spacing >= 1, "packet spacing must be >= 1");
  LDCF_REQUIRE(config.coverage_fraction > 0.0 &&
                   config.coverage_fraction <= 1.0,
               "coverage fraction must be in (0, 1]");
  LDCF_REQUIRE(config.source < topo.num_nodes(), "source out of range");
  LDCF_REQUIRE(config.capture_ratio >= 0.0,
               "capture ratio must be non-negative (0 disables capture)");
  for (const NodeFailure& f : config.perturbations.node_failures) {
    LDCF_REQUIRE(f.node != config.source && f.node < topo.num_nodes(),
                 "cannot kill the source or an out-of-range node");
  }
  if (config.perturbations.burst) {
    const LinkBurst& b = *config.perturbations.burst;
    LDCF_REQUIRE(b.period > 0, "link burst period must be positive");
    LDCF_REQUIRE(b.duration <= b.period,
                 "link burst duration must not exceed the period (use "
                 "duration == period for a permanent burst)");
    LDCF_REQUIRE(b.prr_scale >= 0.0 && b.prr_scale <= 1.0,
                 "link burst prr_scale must be in [0, 1] (a burst degrades "
                 "links, it cannot amplify them)");
  }
  return config;
}

// Substream derivation order is part of the determinism contract: the
// master seed forks schedules first, then the channel, then the protocol
// substream, exactly as the original run_simulation did. `master` is fresh
// here, so derive_schedule_set (which forks a new master with the same
// seed) yields this engine's schedules. The fork is burned even when the
// caller supplies cached schedules — that keeps the channel and protocol
// seeds identical to a cold run — and the injected set's shape is
// validated against the config.
std::shared_ptr<const schedule::ScheduleSet> build_schedules(
    const topology::Topology& topo, const SimConfig& config, Rng& master) {
  (void)master.fork_seed();
  if (config.shared_schedules == nullptr) {
    return std::make_shared<const schedule::ScheduleSet>(
        derive_schedule_set(topo, config));
  }
  const schedule::ScheduleSet& s = *config.shared_schedules;
  LDCF_REQUIRE(s.num_nodes() == topo.num_nodes(),
               "shared_schedules built for a different node count");
  LDCF_REQUIRE(s.duty() == config.duty &&
                   s.slots_per_period() == config.slots_per_period,
               "shared_schedules built for a different duty cycle");
  return config.shared_schedules;
}

void validate_intents(const topology::Topology& topo,
                      const PossessionState& possession,
                      const schedule::ScheduleSet& schedules, SlotIndex slot,
                      const std::vector<TxIntent>& intents) {
  for (const TxIntent& intent : intents) {
    LDCF_REQUIRE(intent.sender < topo.num_nodes(), "sender out of range");
    LDCF_REQUIRE(possession.has(intent.sender, intent.packet),
                 "sender does not hold the packet");
    if (intent.is_broadcast()) continue;  // no addressee to validate.
    LDCF_REQUIRE(intent.receiver < topo.num_nodes(),
                 "intent receiver out of range");
    LDCF_REQUIRE(intent.sender != intent.receiver,
                 "intent sender == receiver");
    LDCF_REQUIRE(topo.is_link(intent.link, intent.sender, intent.receiver),
                 "intent over a non-existent link");
    LDCF_REQUIRE(schedules.is_active(intent.receiver, slot),
                 "intent to a dormant receiver");
  }
}

}  // namespace

MetricsCollector::MetricsCollector(std::size_t num_nodes,
                                   std::uint32_t num_packets,
                                   std::uint64_t coverage_target) {
  metrics.coverage_target = coverage_target;
  metrics.packets.resize(num_packets);
  for (PacketId p = 0; p < num_packets; ++p) {
    metrics.packets[p].packet = p;
  }
  tally.active_slots.assign(num_nodes, 0);
  tally.dormant_slots.assign(num_nodes, 0);
  tally.tx_attempts.assign(num_nodes, 0);
  tally.receptions.assign(num_nodes, 0);
}

void MetricsCollector::on_generate(PacketId packet, SlotIndex slot) {
  metrics.packets[packet].generated_at = slot;
}

void MetricsCollector::on_tx_result(const TxResult& result, SlotIndex slot) {
  metrics.channel.record(result.outcome, result.duplicate);
  ++tally.tx_attempts[result.intent.sender];
  if (result.outcome == TxOutcome::kDelivered) {
    ++tally.receptions[result.intent.receiver];
  }
  auto& rec = metrics.packets[result.intent.packet];
  if (rec.first_tx_at == kNeverSlot) rec.first_tx_at = slot;
}

void MetricsCollector::on_delivery(NodeId /*node*/, PacketId packet,
                                   NodeId /*from*/, bool overheard,
                                   SlotIndex /*slot*/) {
  ++metrics.packets[packet].deliveries;
  if (overheard) ++metrics.channel.overhear_deliveries;
}

void MetricsCollector::on_overhear(NodeId listener, NodeId /*sender*/,
                                   PacketId /*packet*/, bool /*fresh*/,
                                   SlotIndex /*slot*/) {
  ++tally.receptions[listener];
}

void MetricsCollector::on_packet_covered(PacketId packet,
                                         SlotIndex covered_at) {
  metrics.packets[packet].covered_at = covered_at;
}

SimEngine::SimEngine(const topology::Topology& topo, const SimConfig& config)
    : topo_(topo),
      config_(validate_config(topo, config)),
      master_(config_.seed),
      schedules_(build_schedules(topo, config_, master_)),
      channel_seed_(master_.fork_seed()),
      protocol_seed_(master_.fork_seed()),
      deaths_(config_.perturbations.node_failures),
      channel_(topo),
      possession_(topo.num_nodes(), config_.num_packets, config_.source) {
  // Coverage target: the 99% rule, clipped to what is actually reachable so
  // a handful of isolated trace nodes cannot stall the run (paper §V-B).
  const std::uint64_t reachable_sensors =
      static_cast<std::uint64_t>(topo.reachable_count(config_.source)) - 1;
  const auto requested = static_cast<std::uint64_t>(std::ceil(
      config_.coverage_fraction * static_cast<double>(topo.num_sensors())));
  coverage_target_ =
      std::max<std::uint64_t>(1, std::min(requested, reachable_sensors));

  std::sort(deaths_.begin(), deaths_.end(),
            [](const NodeFailure& a, const NodeFailure& b) {
              return a.at_slot < b.at_slot;
            });
  ws_.transmitting.assign(topo.num_nodes(), 0);
}

SimResult SimEngine::run(FloodingProtocol& protocol, SimObserver* observer) {
  MetricsCollector collector(topo_.num_nodes(), config_.num_packets,
                             coverage_target_);
  protocol_ = &protocol;
  collector_ = &collector;
  observer_ = observer;

  // Per-run state: everything derives from the seeds captured at
  // construction, so repeated runs replay the identical simulation.
  channel_rng_ = Rng(channel_seed_);
  channel_config_ = ChannelConfig{};
  channel_config_.collisions = !protocol.collision_free_oracle();
  channel_config_.overhearing = protocol.wants_overhearing();
  channel_config_.prr_scale = 1.0;
  channel_config_.capture_ratio = config_.capture_ratio;
  channel_config_.rng_mode = config_.channel_rng;
  // Keyed draws derive from the same channel substream seed the sequential
  // stream uses, so either mode is a pure function of SimConfig::seed.
  channel_config_.keyed_seed = channel_seed_;
  possession_.reset();
  dead_.assign(topo_.num_nodes(), 0);
  next_death_ = 0;
  alive_sensors_ = topo_.num_sensors();
  dead_holders_.assign(config_.num_packets, 0);
  uncovered_.clear();
  uncovered_.reserve(config_.num_packets);
  covered_count_ = 0;
  generated_ = 0;
  skipped_by_phase_.assign(config_.duty.period, 0);
  frozen_credit_.assign(topo_.num_nodes(), 0);
  live_by_phase_.resize(config_.duty.period);
  for (std::uint32_t p = 0; p < config_.duty.period; ++p) {
    live_by_phase_[p] = schedules_->active_nodes_at(p).size();
  }

  SimContext ctx;
  ctx.topo = &topo_;
  ctx.schedules = schedules_.get();
  ctx.duty = config_.duty;
  ctx.num_packets = config_.num_packets;
  ctx.seed = protocol_seed_;
  ctx.source = config_.source;
  ctx.energy_tree = config_.shared_tree.get();
  ctx.possession = &possession_;

  obs::Timeline* const tl = config_.timeline;
  if (tl != nullptr) tl->label_current_thread("engine");
  {
    // Protocol setup is a timeline span, not one of the 12 profiler stages.
    obs::TimelineSpan setup(tl, "setup", "engine");
    protocol.initialize(ctx);
  }
  profiler_.reset(config_.profiling, tl);
  // Compact time is purely an execution strategy: results are bit-identical
  // to the dense loop (differential suite). Observers that enumerate every
  // slot verbatim force the dense path for their run.
  const bool use_compact =
      config_.compact_time &&
      (observer == nullptr || !observer->wants_every_slot());
  // The run's only counter tracks: coverage, in-flight, generated and every
  // ChannelCounters field, all read from the engine's own accounts.
  const auto publish_counters = [&] {
    const ChannelCounters& channel = collector.metrics.channel;
    const std::pair<const char*, std::uint64_t> tracks[] = {
        {"engine.packets_covered", covered_count_},
        {"engine.packets_in_flight", uncovered_.size()},
        {"engine.packets_generated", generated_},
        {"engine.tx_attempts", channel.attempts},
        {"engine.tx_delivered", channel.delivered},
        {"engine.tx_duplicates", channel.duplicates},
        {"engine.tx_losses", channel.losses},
        {"engine.tx_collisions", channel.collisions},
        {"engine.tx_receiver_busy", channel.receiver_busy},
        {"engine.tx_broadcasts", channel.broadcasts},
        {"engine.tx_sync_misses", channel.sync_misses},
        {"engine.overhear_deliveries", channel.overhear_deliveries}};
    for (const auto& [track, value] : tracks) {
      tl->counter(track, static_cast<double>(value));
    }
  };
  std::uint64_t sampled_slots = 0;
  SlotIndex t = 0;
  {
    // The slot loop's probe: its "run" span encloses every stage span and the
    // last counter sample, and its duration is the loop wall time.
    obs::TimelineSpan run(tl, "run", "engine", "slots", 0, nullptr, 0,
                          profiler_.wall_ns());
    while (covered_count_ < config_.num_packets && t < config_.max_slots) {
      if (use_compact) {
        StageProfiler::Scope timed(profiler_, Stage::kCompact, "slot", t);
        const SlotIndex next = next_event_slot(t);
        if (next > t) {
          const SlotIndex stop = std::min(next, config_.max_slots);
          fast_forward(t, stop);
          timed.arg1("skipped", stop - t);
          t = stop;
          continue;
        }
      }
      std::span<const NodeId> active;
      {
        StageProfiler::Scope timed(profiler_, Stage::kFaults, "slot", t);
        stage_faults(t);
        active = stage_active(t);
      }
      notify([&](auto& o) { o.on_slot_begin(t, active); });
      {
        StageProfiler::Scope timed(profiler_, Stage::kGeneration, "slot", t);
        stage_generation(t);
      }
      {
        StageProfiler::Scope timed(profiler_, Stage::kIntents, "slot", t,
                                   "active", active.size());
        stage_intents(t, active);
      }
      {
        StageProfiler::Scope timed(profiler_, Stage::kSyncMiss, "slot", t);
        stage_sync_miss();
      }
      // Not wrapped in a kChannel scope: the kernel times its own
      // gather/draw/apply phases, and stage_channel scopes the residual, so
      // the stage buckets stay mutually exclusive (shares sum to 1).
      stage_channel(t, active);
      {
        StageProfiler::Scope timed(profiler_, Stage::kEnergy, "slot", t);
        stage_energy(t, active);
      }
      {
        StageProfiler::Scope timed(profiler_, Stage::kApply, "slot", t,
                                   "results", ws_.resolution.results.size());
        stage_apply(t);
      }
      {
        StageProfiler::Scope timed(profiler_, Stage::kCoverage, "slot", t);
        stage_coverage(t);
      }
      if (tl != nullptr && sampled_slots++ % kCounterStride == 0) {
        publish_counters();
      }
      ++t;
    }
    if (tl != nullptr) publish_counters();
    // "slots" means slots the staged loop actually executed: skipped slots
    // are accounted separately, so executed + skipped == end_slot.
    const std::uint64_t executed = t - profiler_.profile().slots_skipped;
    run.arg0("slots", executed);
    profiler_.add_slots(executed);
  }

  collector.metrics.end_slot = t;
  collector.metrics.all_covered = covered_count_ == config_.num_packets;
  collector.metrics.truncated =
      !collector.metrics.all_covered && t >= config_.max_slots;

  // Settle the listening tally for fast-forwarded slots: in an idle slot
  // every live active node would have listened (nobody transmits), so each
  // node is credited with the skipped occurrences of its wake phases —
  // frozen at the death slot for nodes that died. All-zero on the dense
  // path.
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    collector.tally.active_slots[n] +=
        dead_[n] != 0 ? frozen_credit_[n] : listen_credit(n);
  }

  // Dormant slots: everything a node did not spend listening or sending.
  for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
    const std::uint64_t busy =
        collector.tally.active_slots[n] + collector.tally.tx_attempts[n];
    collector.tally.dormant_slots[n] = t > busy ? t - busy : 0;
  }

  SimResult out;
  out.metrics = std::move(collector.metrics);
  out.tally = std::move(collector.tally);
  out.energy = compute_energy(out.tally, config_.energy);
  out.profile = profiler_.profile();
  if (observer_ != nullptr) observer_->on_run_end(out);

  protocol_ = nullptr;
  collector_ = nullptr;
  observer_ = nullptr;
  return out;
}

// Fault injection due this slot. Dead nodes stop receiving/transmitting;
// copies they already held keep counting toward coverage. The burst
// perturbation rides along here because both feed the channel config.
void SimEngine::stage_faults(SlotIndex t) {
  while (next_death_ < deaths_.size() && deaths_[next_death_].at_slot <= t) {
    const NodeId victim = deaths_[next_death_++].node;
    if (dead_[victim]) continue;
    dead_[victim] = 1;
    // Freeze the compact-time listen credit at the death slot: every gap
    // skipped so far happened while the victim was alive (fast-forward
    // never crosses a pending death), later gaps must not count.
    frozen_credit_[victim] = listen_credit(victim);
    for (const std::uint32_t phase : schedules_->active_slots(victim)) {
      --live_by_phase_[phase];
    }
    --alive_sensors_;
    for (PacketId p = 0; p < config_.num_packets; ++p) {
      if (possession_.has(victim, p)) ++dead_holders_[p];
    }
  }
  channel_config_.prr_scale =
      (config_.perturbations.burst && config_.perturbations.burst->active_at(t))
          ? config_.perturbations.burst->prr_scale
          : 1.0;
}

// This slot's receivers: the schedule's phase bucket, viewed in place until
// the first death forces a filtered copy into the workspace.
std::span<const NodeId> SimEngine::stage_active(SlotIndex t) {
  const std::span<const NodeId> bucket = schedules_->active_nodes_at(t);
  if (next_death_ == 0) return bucket;
  ws_.active.assign(bucket.begin(), bucket.end());
  std::erase_if(ws_.active, [&](NodeId n) { return dead_[n] != 0; });
  return ws_.active;
}

// Packet generation (one every packet_spacing slots).
void SimEngine::stage_generation(SlotIndex t) {
  while (generated_ < config_.num_packets &&
         static_cast<SlotIndex>(generated_) * config_.packet_spacing == t) {
    const PacketId p = generated_++;
    uncovered_.push_back(p);
    possession_.deliver(config_.source, p);
    notify([&](auto& o) { o.on_generate(p, t); });
    protocol_->on_generate(p, t);
  }
}

// Ask the protocol for this slot's unicasts. Protocols do not learn about
// deaths (nodes fail silently in the field), so intents touching dead nodes
// are expected: a dead sender stays silent, a unicast to a dead receiver is
// transmitted and lost (a "ghost" intent).
void SimEngine::stage_intents(SlotIndex t, std::span<const NodeId> active) {
  ws_.intents.clear();
  ws_.ghosts.clear();
  protocol_->propose_transmissions(t, active, ws_.intents);
  if (next_death_ > 0) {
    std::erase_if(ws_.intents, [&](const TxIntent& intent) {
      return dead_[intent.sender] != 0;
    });
    std::erase_if(ws_.intents, [&](const TxIntent& intent) {
      if (intent.is_broadcast() || dead_[intent.receiver] == 0) return false;
      ws_.ghosts.push_back(intent);
      return true;
    });
  }
  validate_intents(topo_, possession_, *schedules_, t, ws_.intents);
}

// Imperfect local synchronization: with probability sync_miss_prob a
// unicast fires at a stale wakeup estimate and hits a sleeping radio. The
// transmission still costs energy and the sender retries later.
void SimEngine::stage_sync_miss() {
  ws_.sync_missed.clear();
  if (config_.sync_miss_prob <= 0.0) return;
  std::erase_if(ws_.intents, [&](const TxIntent& intent) {
    if (intent.is_broadcast()) return false;
    if (!channel_rng_.bernoulli(config_.sync_miss_prob)) return false;
    ws_.sync_missed.push_back(intent);
    return true;
  });
}

// Channel resolution, then append the results the channel never saw: sync
// misses first, then ghost unicasts (both count as attempts downstream).
// The kernel phases are timed inside resolve; the kChannel bucket keeps
// only this engine-side residual.
void SimEngine::stage_channel(SlotIndex t, std::span<const NodeId> active) {
  channel_.resolve(ws_.intents, active, t, channel_config_, channel_rng_,
                   ws_.resolution, &profiler_);
  StageProfiler::Scope timed(profiler_, Stage::kChannel, "slot", t,
                             "intents", ws_.intents.size());
  for (const TxIntent& intent : ws_.sync_missed) {
    TxResult missed;
    missed.intent = intent;
    missed.outcome = TxOutcome::kSyncMiss;
    ws_.resolution.results.push_back(missed);
  }
  for (const TxIntent& intent : ws_.ghosts) {
    TxResult lost;
    lost.intent = intent;
    lost.outcome = TxOutcome::kLostChannel;
    ws_.resolution.results.push_back(lost);
  }
}

// Energy tally: transmitters pay tx (counted per attempt by the collector);
// active non-transmitters pay a listening slot. Ghost senders deliberately
// stay unmarked, matching the original accounting.
void SimEngine::stage_energy(SlotIndex t, std::span<const NodeId> active) {
  for (const TxIntent& intent : ws_.intents) {
    ws_.transmitting[intent.sender] = 1;
  }
  for (const TxIntent& intent : ws_.sync_missed) {
    ws_.transmitting[intent.sender] = 1;
  }
  std::uint64_t listeners = 0;
  for (const NodeId n : active) {
    if (!ws_.transmitting[n]) {
      collector_->note_listen(n);
      ++listeners;
    }
  }
  if (observer_ != nullptr) observer_->on_slot_listeners(t, listeners);
  for (const TxIntent& intent : ws_.intents) {
    ws_.transmitting[intent.sender] = 0;
  }
  for (const TxIntent& intent : ws_.sync_missed) {
    ws_.transmitting[intent.sender] = 0;
  }
}

// Apply results: settle possession, stream events to the observers, and
// feed the protocol its link-layer view (on_delivery before on_outcome for
// a fresh copy, exactly as before). The iteration order here is the
// protocol-facing ordering contract (flooding_protocol.hpp): all unicast
// results in intent order, then all overhears in ascending listener id —
// the channel's apply phase emits both sequences in that fixed order
// regardless of ChannelRngMode.
void SimEngine::stage_apply(SlotIndex t) {
  for (const TxResult& raw : ws_.resolution.results) {
    TxResult result = raw;
    bool fresh = false;
    if (result.outcome == TxOutcome::kDelivered) {
      fresh = possession_.deliver(result.intent.receiver, result.intent.packet);
      result.duplicate = !fresh;
    }
    notify([&](auto& o) { o.on_tx_result(result, t); });
    if (fresh) {
      notify([&](auto& o) {
        o.on_delivery(result.intent.receiver, result.intent.packet,
                      result.intent.sender, /*overheard=*/false, t);
      });
      protocol_->on_delivery(result.intent.receiver, result.intent.packet,
                             result.intent.sender, t);
    }
    protocol_->on_outcome(result, t);
  }
  for (const OverhearEvent& ev : ws_.resolution.overhears) {
    const bool fresh = possession_.deliver(ev.listener, ev.packet);
    notify([&](auto& o) {
      o.on_overhear(ev.listener, ev.sender, ev.packet, fresh, t);
    });
    if (fresh) {
      notify([&](auto& o) {
        o.on_delivery(ev.listener, ev.packet, ev.sender, /*overheard=*/true,
                      t);
      });
      protocol_->on_delivery(ev.listener, ev.packet, ev.sender, t);
    }
    protocol_->on_overhear(ev.listener, ev.sender, ev.packet, t);
  }
}

// The earliest slot >= t at which anything observable can happen: the next
// packet generation, the next node death, or the protocol's own next busy
// slot. Every other slot in between is provably inert — no intents, no RNG
// draws, no possession or coverage change — because generation and faults
// are the only engine-driven events and the protocol hint is contractually
// never late. Link-burst edges need no entry here: prr_scale is recomputed
// from the absolute slot index on every visited slot and only matters when
// intents exist.
SlotIndex SimEngine::next_event_slot(SlotIndex t) const {
  SlotIndex next = kNeverSlot;
  if (generated_ < config_.num_packets) {
    next = std::min(next, static_cast<SlotIndex>(generated_) *
                              config_.packet_spacing);
  }
  if (next_death_ < deaths_.size()) {
    next = std::min(next, deaths_[next_death_].at_slot);
  }
  next = std::min(next, protocol_->next_busy_slot(t));
  // Components are >= t by construction (generation and deaths are caught
  // up through slot t-1); clamp so a misbehaving hint degrades to the dense
  // path instead of rewinding time.
  return std::max(next, t);
}

// Account for the idle gap [from, to): bump the per-phase skip counters
// that back listen_credit, in closed form (O(min(gap, T))).
void SimEngine::fast_forward(SlotIndex from, SlotIndex to) {
  schedule::for_each_phase_in(
      config_.duty.period, from, to,
      [&](std::uint32_t phase, std::uint64_t count) {
        skipped_by_phase_[phase] += count;
      });
  profiler_.add_skip(to - from);
  if (observer_ != nullptr) observer_->on_idle_gap(from, to, live_by_phase_);
}

// Listening slots node n accrued across all gaps skipped so far: one per
// skipped occurrence of each of its wake phases.
std::uint64_t SimEngine::listen_credit(NodeId n) const {
  std::uint64_t credit = 0;
  for (const std::uint32_t phase : schedules_->active_slots(n)) {
    credit += skipped_by_phase_[phase];
  }
  return credit;
}

// Coverage bookkeeping (possession counts are end-of-slot). Nodes that died
// without a packet can never receive it, so the requirement clamps to what
// is still achievable: live sensors plus copies that reached now-dead
// sensors in time.
void SimEngine::stage_coverage(SlotIndex t) {
  // Only packets still in flight are scanned; the list stays in ascending
  // packet order (stable compaction) so on_packet_covered fires in the same
  // order a full 0..generated_ sweep would produce.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < uncovered_.size(); ++i) {
    const PacketId p = uncovered_[i];
    const std::uint64_t achievable = alive_sensors_ + dead_holders_[p];
    const std::uint64_t required = std::min(coverage_target_, achievable);
    if (possession_.sensor_holders(p) >= required) {
      ++covered_count_;
      notify([&](auto& o) { o.on_packet_covered(p, t + 1); });
    } else {
      uncovered_[keep++] = p;
    }
  }
  uncovered_.resize(keep);
}

schedule::ScheduleSet derive_schedule_set(const topology::Topology& topo,
                                          const SimConfig& config) {
  Rng master(config.seed);
  Rng schedule_rng(master.fork_seed());
  return schedule::ScheduleSet(topo.num_nodes(), config.duty, schedule_rng,
                               config.slots_per_period);
}

}  // namespace ldcf::sim
