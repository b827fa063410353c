#include "ldcf/sim/channel.hpp"

#include <algorithm>
#include <string>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/timeline.hpp"
#include "ldcf/sim/worker_pool.hpp"

namespace ldcf::sim {

namespace {

// Phase-2 listener outcome sentinel: the draw was attempted and lost (as
// opposed to Channel::kNoIntent = no draw at all). Distinct values let the
// apply phase count attempts without a second per-listener array.
constexpr std::uint32_t kOverhearLost = 0xfffffffeU;

// Which Timeline this worker thread last labeled its lane for: labeling
// takes the registry mutex, so do it once per (thread, timeline), not once
// per slot.
thread_local const obs::Timeline* t_labeled_for = nullptr;

}  // namespace

Channel::Channel(const topology::Topology& topo)
    : topo_(topo),
      transmitting_(topo.num_nodes(), 0),
      intents_on_receiver_(topo.num_nodes(), 0),
      rx_best_prr_(topo.num_nodes(), 0.0),
      rx_second_prr_(topo.num_nodes(), 0.0),
      rx_best_intent_(topo.num_nodes(), kNoIntent),
      captured_(topo.num_nodes(), kNoIntent),
      audible_count_(topo.num_nodes(), 0),
      listen_best_prr_(topo.num_nodes(), 0.0),
      listen_second_prr_(topo.num_nodes(), 0.0),
      listen_best_intent_(topo.num_nodes(), kNoIntent),
      listen_last_intent_(topo.num_nodes(), kNoIntent),
      awake_(topo.num_nodes(), 0) {}

Channel::~Channel() = default;

void Channel::reset_scratch() {
  // Cleared at the *start* of resolve so that a throw mid-slot (duplicate
  // sender) leaves nothing the next call cannot recover from.
  for (const NodeId n : tx_dirty_) transmitting_[n] = 0;
  tx_dirty_.clear();
  for (const NodeId r : rx_dirty_) {
    intents_on_receiver_[r] = 0;
    rx_best_prr_[r] = 0.0;
    rx_second_prr_[r] = 0.0;
    rx_best_intent_[r] = kNoIntent;
    captured_[r] = kNoIntent;
  }
  rx_dirty_.clear();
  for (const NodeId l : listen_dirty_) {
    audible_count_[l] = 0;
    listen_best_prr_[l] = 0.0;
    listen_second_prr_[l] = 0.0;
    listen_best_intent_[l] = kNoIntent;
    listen_last_intent_[l] = kNoIntent;
  }
  listen_dirty_.clear();
  broadcast_senders_.clear();
  uni_result_.clear();
  uni_sender_.clear();
  uni_receiver_.clear();
  uni_packet_.clear();
  uni_prob_.clear();
}

WorkerPool& Channel::pool(std::uint32_t threads) {
  if (!pool_ || pool_->workers() != threads) {
    pool_ = std::make_unique<WorkerPool>(threads - 1);
  }
  return *pool_;
}

void Channel::resolve(std::span<const TxIntent> intents,
                      std::span<const NodeId> active_receivers, SlotIndex slot,
                      const ChannelConfig& config, Rng& rng,
                      SlotResolution& out, StageProfiler* profiler) {
  reset_scratch();
  out.results.clear();
  out.overhears.clear();
  last_draw_count_ = 0;
  if (intents.empty()) return;
  out.results.reserve(intents.size());

  // Phase spans are recorded by hand (start captured here, closed at the
  // phase boundary) because the three phases are not brace-nested scopes.
  // Each span opens after its profiler interval starts and reads its end
  // clock before the profiler does, so spans nest inside the stage totals
  // by construction; the span is stored after the profiler interval closes.
  obs::Timeline* const tl = config.timeline;
  const auto close_phase = [&](Stage stage, std::uint64_t t0, const char* name,
                               std::uint64_t start_ns, std::uint64_t items) {
    const std::uint64_t end_ns = tl ? tl->now_ns() : 0;
    if (profiler) profiler->add(stage, t0);
    if (tl == nullptr) return;
    obs::SpanRecord span;
    span.name = name;
    span.category = "channel";
    span.start_ns = start_ns;
    span.dur_ns = end_ns - start_ns;
    span.arg0_name = "slot";
    span.arg0 = slot;
    span.arg1_name = "items";
    span.arg1 = items;
    tl->lane().record_span(span);
  };

  // ---- Phase 1: gather. Classify every intent, run the RNG-free channel
  // rules (busy / collision / capture), and collect each pending Bernoulli
  // draw into the flat SoA batch. No randomness is consumed here, so the
  // phase split cannot move a draw relative to the legacy interleaved loop.
  const std::uint64_t gather_t0 = profiler ? profiler->now() : 0;
  const std::uint64_t gather_ns0 = tl ? tl->now_ns() : 0;

  for (const TxIntent& intent : intents) {
    LDCF_CHECK(!transmitting_[intent.sender],
               "a sender proposed two intents in one slot");
    tx_dirty_.push_back(intent.sender);
    transmitting_[intent.sender] = 1;
    if (intent.is_broadcast()) {
      broadcast_senders_.push_back(intent.sender);
    } else {
      if (intents_on_receiver_[intent.receiver] == 0) {
        rx_dirty_.push_back(intent.receiver);
      }
      ++intents_on_receiver_[intent.receiver];
    }
  }

  // A broadcast audible at a unicast addressee is interference there.
  const auto broadcast_audible_at = [&](NodeId node) {
    for (const NodeId sender : broadcast_senders_) {
      if (topo_.has_link(sender, node)) return true;
    }
    return false;
  };

  // Capture pre-pass: for contested receivers, find the dominant unicast
  // (if any) that survives the overlap.
  if (config.collisions && config.capture_ratio > 0.0) {
    for (std::uint32_t i = 0; i < intents.size(); ++i) {
      const TxIntent& intent = intents[i];
      if (intent.is_broadcast()) continue;
      const NodeId r = intent.receiver;
      const double prr = topo_.prr(intent.sender, r).value_or(0.0);
      if (prr > rx_best_prr_[r]) {
        rx_second_prr_[r] = rx_best_prr_[r];
        rx_best_prr_[r] = prr;
        rx_best_intent_[r] = i;
      } else if (prr > rx_second_prr_[r]) {
        rx_second_prr_[r] = prr;
      }
    }
    for (const NodeId r : rx_dirty_) {
      if (intents_on_receiver_[r] > 1 && rx_best_intent_[r] != kNoIntent &&
          rx_best_prr_[r] >= config.capture_ratio * rx_second_prr_[r] &&
          rx_second_prr_[r] > 0.0) {
        captured_[r] = rx_best_intent_[r];
      }
    }
  }

  for (std::uint32_t i = 0; i < intents.size(); ++i) {
    const TxIntent& intent = intents[i];
    TxResult result;
    result.intent = intent;
    if (intent.is_broadcast()) {
      result.outcome = TxOutcome::kBroadcast;
      out.results.push_back(result);
      continue;
    }
    const bool survives_overlap = intents_on_receiver_[intent.receiver] <= 1 ||
                                  captured_[intent.receiver] == i;
    if (transmitting_[intent.receiver]) {
      result.outcome = TxOutcome::kReceiverBusy;
    } else if (config.collisions &&
               (!survives_overlap || broadcast_audible_at(intent.receiver))) {
      result.outcome = TxOutcome::kCollision;
    } else {
      const auto prr = topo_.prr(intent.sender, intent.receiver);
      LDCF_CHECK(prr.has_value(), "intent over a non-existent link");
      // Provisionally lost; the apply phase patches the winners. The clamp
      // keeps the probability a draw sees inside [0, 1] even for degenerate
      // prr_scale perturbations.
      result.outcome = TxOutcome::kLostChannel;
      uni_result_.push_back(static_cast<std::uint32_t>(out.results.size()));
      uni_sender_.push_back(intent.sender);
      uni_receiver_.push_back(intent.receiver);
      uni_packet_.push_back(intent.packet);
      uni_prob_.push_back(std::min(*prr * config.prr_scale, 1.0));
    }
    out.results.push_back(result);
  }

  // Listener pass setup: each active node that is neither transmitting nor
  // the addressee of a unicast can decode whatever it hears — an overheard
  // unicast or a broadcast. With capture off, exactly one audible
  // transmission decodes with the link PRR; with capture on, a dominant one
  // may survive a crowd.
  //
  // Two equivalent evaluation orders, chosen per slot by estimated work:
  // scattering each transmission's neighborhood into per-listener stats is
  // O(active + sum of sender degrees) and wins when many nodes listen (high
  // duty); scanning the intents per active listener is O(active * intents)
  // PRR lookups and wins in the sparse low-duty regime. Both accumulate the
  // per-listener stats in intent order, so decodability and the draw
  // sequence are bit-identical either way. The scatter writes only awake
  // listeners' stats: listener_candidate reads nothing else, and at low
  // duty nearly every neighbor of a sender is asleep.
  const bool need_listeners =
      config.overhearing || !broadcast_senders_.empty();
  bool scatter = false;
  if (need_listeners) {
    std::size_t scatter_work = active_receivers.size();
    for (const TxIntent& intent : intents) {
      scatter_work += topo_.neighbors(intent.sender).size();
    }
    scatter = scatter_work < active_receivers.size() * intents.size();
    if (scatter) {
      for (const NodeId l : active_receivers) awake_[l] = 1;
      for (std::uint32_t i = 0; i < intents.size(); ++i) {
        for (const topology::Link& link :
             topo_.neighbors(intents[i].sender)) {
          const NodeId l = link.to;
          if (awake_[l] == 0) continue;
          if (audible_count_[l] == 0) listen_dirty_.push_back(l);
          ++audible_count_[l];
          listen_last_intent_[l] = i;
          if (link.prr > listen_best_prr_[l]) {
            listen_second_prr_[l] = listen_best_prr_[l];
            listen_best_prr_[l] = link.prr;
            listen_best_intent_[l] = i;
          } else if (link.prr > listen_second_prr_[l]) {
            listen_second_prr_[l] = link.prr;
          }
        }
      }
      for (const NodeId l : active_receivers) awake_[l] = 0;
    }
    listen_hit_.assign(active_receivers.size(), kNoIntent);
  }

  const std::size_t n_uni = uni_prob_.size();
  const std::size_t n_words = (n_uni + 63) / 64;
  const std::size_t n_listen = need_listeners ? active_receivers.size() : 0;
  uni_bits_.assign(n_words, 0);

  close_phase(Stage::kChannelGather, gather_t0, "channel_gather", gather_ns0,
              intents.size());

  // Decodability and draw probability for one listener: a pure function of
  // the phase-1 scratch (or a read-only intent scan), so it is safe to
  // evaluate from any worker and on any schedule.
  struct ListenerDraw {
    std::uint32_t hit;
    double prob;
  };
  const auto listener_candidate = [&](NodeId listener) -> ListenerDraw {
    if (transmitting_[listener]) return {kNoIntent, 0.0};
    if (intents_on_receiver_[listener] > 0) {
      return {kNoIntent, 0.0};  // it is an addressee.
    }
    std::uint32_t audible_count = 0;
    double best_prr = 0.0;
    double second_prr = 0.0;
    std::uint32_t best_intent = kNoIntent;
    std::uint32_t last_intent = kNoIntent;
    if (scatter) {
      audible_count = audible_count_[listener];
      best_prr = listen_best_prr_[listener];
      second_prr = listen_second_prr_[listener];
      best_intent = listen_best_intent_[listener];
      last_intent = listen_last_intent_[listener];
    } else {
      for (std::uint32_t i = 0; i < intents.size(); ++i) {
        const auto prr = topo_.prr(intents[i].sender, listener);
        if (!prr.has_value()) continue;
        ++audible_count;
        last_intent = i;
        if (*prr > best_prr) {
          second_prr = best_prr;
          best_prr = *prr;
          best_intent = i;
        } else if (*prr > second_prr) {
          second_prr = *prr;
        }
      }
    }
    std::uint32_t decodable = kNoIntent;
    if (audible_count == 1) {
      decodable = last_intent;
    } else if (audible_count > 1 && config.capture_ratio > 0.0 &&
               best_intent != kNoIntent && second_prr > 0.0 &&
               best_prr >= config.capture_ratio * second_prr) {
      decodable = best_intent;  // capture: the dominant survives the crowd.
    }
    if (decodable == kNoIntent) return {kNoIntent, 0.0};
    // Unicast overhearing only happens when the protocol listens
    // promiscuously; broadcasts are meant for everybody.
    if (!intents[decodable].is_broadcast() && !config.overhearing) {
      return {kNoIntent, 0.0};
    }
    return {decodable, std::min(best_prr * config.prr_scale, 1.0)};
  };

  // ---- Phase 2: realize the draws.
  const std::uint64_t draw_t0 = profiler ? profiler->now() : 0;
  const std::uint64_t draw_ns0 = tl ? tl->now_ns() : 0;

  if (config.rng_mode == ChannelRngMode::kSequential) {
    // Historical order on the shared stream: unicast draws in intent order,
    // then overhear draws in ascending listener order. bernoulli() skips
    // the stream entirely on degenerate probabilities, exactly as the
    // interleaved loop did, so golden fingerprints are preserved.
    for (std::size_t d = 0; d < n_uni; ++d) {
      if (rng.bernoulli(uni_prob_[d])) {
        uni_bits_[d >> 6] |= 1ULL << (d & 63);
      }
    }
    for (std::size_t j = 0; j < n_listen; ++j) {
      const ListenerDraw cand = listener_candidate(active_receivers[j]);
      if (cand.hit == kNoIntent) continue;
      listen_hit_[j] = rng.bernoulli(cand.prob) ? cand.hit : kOverhearLost;
    }
  } else {
    // Counter-based draws: each realization depends only on its key, so
    // the loop order — and the worker partition — cannot change results.
    // Workers own disjoint bitset words (64-draw aligned chunks) and
    // disjoint listener ranges; no output location is shared.
    const auto keyed_phase = [&](std::uint32_t worker, std::uint32_t workers) {
      // Helper-thread lanes get a stable pool-N label (worker 0 is the
      // caller — already labeled by the engine).
      if (tl != nullptr && worker != 0 && t_labeled_for != tl) {
        tl->label_current_thread("pool-" + std::to_string(worker));
        t_labeled_for = tl;
      }
      obs::TimelineSpan chunk_span(tl, "channel_draw_chunk", "pool", "worker",
                                   worker, "slot", slot);
      const auto [wb, we] = WorkerPool::chunk(n_words, worker, workers, 1);
      for (std::size_t w = wb; w < we; ++w) {
        std::uint64_t bits = 0;
        const std::size_t base = w * 64;
        const std::size_t lim = std::min<std::size_t>(64, n_uni - base);
        for (std::size_t k = 0; k < lim; ++k) {
          const std::size_t d = base + k;
          const std::uint64_t key =
              channel_draw_seed(config.keyed_seed, slot, uni_sender_[d],
                                uni_receiver_[d], uni_packet_[d], kDrawUnicast);
          bits |= static_cast<std::uint64_t>(keyed_unit(key) < uni_prob_[d])
                  << k;
        }
        uni_bits_[w] = bits;
      }
      const auto [lb, le] = WorkerPool::chunk(n_listen, worker, workers, 1);
      for (std::size_t j = lb; j < le; ++j) {
        const NodeId listener = active_receivers[j];
        const ListenerDraw cand = listener_candidate(listener);
        if (cand.hit == kNoIntent) continue;
        const TxIntent& heard = intents[cand.hit];
        const std::uint64_t key =
            channel_draw_seed(config.keyed_seed, slot, heard.sender, listener,
                              heard.packet, kDrawOverhear);
        listen_hit_[j] =
            keyed_unit(key) < cand.prob ? cand.hit : kOverhearLost;
      }
    };
    if (config.threads > 1 && n_uni + n_listen >= kMinParallelItems) {
      pool(config.threads).run(keyed_phase);
    } else {
      keyed_phase(0, 1);
    }
  }

  close_phase(Stage::kChannelDraw, draw_t0, "channel_draw", draw_ns0,
              n_uni + n_listen);

  // ---- Phase 3: apply, serially and in fixed index order (the reduce
  // discipline that makes the threaded draw phase bit-identical to the
  // serial one): patch unicast winners, then append overhears in ascending
  // listener order.
  const std::uint64_t apply_t0 = profiler ? profiler->now() : 0;
  const std::uint64_t apply_ns0 = tl ? tl->now_ns() : 0;

  for (std::size_t d = 0; d < n_uni; ++d) {
    if ((uni_bits_[d >> 6] >> (d & 63)) & 1ULL) {
      out.results[uni_result_[d]].outcome = TxOutcome::kDelivered;
    }
  }
  std::uint64_t overhear_draws = 0;
  for (std::size_t j = 0; j < n_listen; ++j) {
    const std::uint32_t hit = listen_hit_[j];
    if (hit == kNoIntent) continue;
    ++overhear_draws;
    if (hit == kOverhearLost) continue;
    const TxIntent& heard = intents[hit];
    out.overhears.push_back(
        OverhearEvent{active_receivers[j], heard.sender, heard.packet});
  }
  last_draw_count_ = n_uni + overhear_draws;

  close_phase(Stage::kChannelApply, apply_t0, "channel_apply", apply_ns0,
              n_uni + overhear_draws);
}

SlotResolution resolve_slot(const topology::Topology& topo,
                            const std::vector<TxIntent>& intents,
                            const std::vector<NodeId>& active_receivers,
                            const ChannelConfig& config, Rng& rng) {
  Channel channel(topo);
  SlotResolution out;
  channel.resolve(intents, active_receivers, /*slot=*/0, config, rng, out);
  return out;
}

}  // namespace ldcf::sim
