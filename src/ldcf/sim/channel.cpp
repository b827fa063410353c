#include "ldcf/sim/channel.hpp"

#include <algorithm>
#include <optional>

#include "ldcf/common/error.hpp"

namespace ldcf::sim {

namespace {

// Phase-2 listener outcome sentinel: the draw was attempted and lost (as
// opposed to Channel::kNoIntent = no draw at all). Distinct values let the
// apply phase count attempts without a second per-listener array.
constexpr std::uint32_t kOverhearLost = 0xfffffffeU;

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
  // One probe per kernel phase: each emplace closes the previous phase's
  // interval before opening the next, and the last closes on return.
  std::optional<StageProfiler::Scope> phase;
  StageProfiler& timing = profiler != nullptr ? *profiler : untimed_;

  // ---- Phase 1: gather. Classify every intent, run the RNG-free channel
  // rules (busy / collision / capture), and collect each pending Bernoulli
  // draw into the flat SoA batch. No randomness is consumed here, so the
  // phase split cannot move a draw relative to the legacy interleaved loop.
  phase.emplace(timing, Stage::kChannelGather, "slot", slot, "items",
                intents.size());

  for (const TxIntent& intent : intents) {
    LDCF_CHECK(!transmitting_[intent.sender],
               "a sender proposed two intents in one slot");
    tx_dirty_.push_back(intent.sender);
    transmitting_[intent.sender] = 1;
    if (intent.is_broadcast()) {
      broadcast_senders_.push_back(intent.sender);
    } else {
      LDCF_CHECK(intent.link < topo_.num_links() &&
                     topo_.link(intent.link).to == intent.receiver,
                 "intent over a non-existent link");
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
      const double prr = topo_.link(intent.link).prr;
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
      // Provisionally lost; the apply phase patches the winners. The clamp
      // keeps the probability a draw sees inside [0, 1] even for degenerate
      // prr_scale perturbations.
      result.outcome = TxOutcome::kLostChannel;
      uni_result_.push_back(static_cast<std::uint32_t>(out.results.size()));
      uni_sender_.push_back(intent.sender);
      uni_receiver_.push_back(intent.receiver);
      uni_packet_.push_back(intent.packet);
      uni_prob_.push_back(
          std::min(topo_.link(intent.link).prr * config.prr_scale, 1.0));
    }
    out.results.push_back(result);
  }

  // Listener pass setup: each active node that is neither transmitting nor
  // the addressee of a unicast can decode whatever it hears — an overheard
  // unicast or a broadcast. With capture off, exactly one audible
  // transmission decodes with the link PRR; with capture on, a dominant one
  // may survive a crowd.
  //
  // Each transmission's neighborhood is scattered into per-listener stats
  // in intent order, O(active + sum of sender degrees). Only awake
  // listeners' stats are written: listener_candidate reads nothing else,
  // and at low duty nearly every neighbor of a sender is asleep.
  const bool need_listeners =
      config.overhearing || !broadcast_senders_.empty();
  if (need_listeners) {
    for (const NodeId l : active_receivers) awake_[l] = 1;
    for (std::uint32_t i = 0; i < intents.size(); ++i) {
      for (const topology::Link& link : topo_.neighbors(intents[i].sender)) {
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
    listen_hit_.assign(active_receivers.size(), kNoIntent);
  }

  const std::size_t n_uni = uni_prob_.size();
  const std::size_t n_listen = need_listeners ? active_receivers.size() : 0;
  uni_bits_.assign((n_uni + 63) / 64, 0);

  // Decodability and draw probability for one listener: a pure function of
  // the phase-1 scratch.
  struct ListenerDraw {
    std::uint32_t hit;
    double prob;
  };
  const auto listener_candidate = [&](NodeId listener) -> ListenerDraw {
    if (transmitting_[listener]) return {kNoIntent, 0.0};
    if (intents_on_receiver_[listener] > 0) {
      return {kNoIntent, 0.0};  // it is an addressee.
    }
    const std::uint32_t audible_count = audible_count_[listener];
    const double best_prr = listen_best_prr_[listener];
    const double second_prr = listen_second_prr_[listener];
    const std::uint32_t best_intent = listen_best_intent_[listener];
    std::uint32_t decodable = kNoIntent;
    if (audible_count == 1) {
      decodable = listen_last_intent_[listener];
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

  // ---- Phase 2: realize the draws, unicast draws in intent order, then
  // overhear draws in ascending listener order.
  phase.emplace(timing, Stage::kChannelDraw, "slot", slot, "items",
                n_uni + n_listen);
  if (config.rng_mode == ChannelRngMode::kSequential) {
    // Historical order on the shared stream. bernoulli() skips the stream
    // entirely on degenerate probabilities, exactly as the interleaved loop
    // did, so golden fingerprints are preserved.
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
    // the loop order cannot change results.
    for (std::size_t d = 0; d < n_uni; ++d) {
      const std::uint64_t key =
          channel_draw_seed(config.keyed_seed, slot, uni_sender_[d],
                            uni_receiver_[d], uni_packet_[d], kDrawUnicast);
      if (keyed_unit(key) < uni_prob_[d]) {
        uni_bits_[d >> 6] |= 1ULL << (d & 63);
      }
    }
    for (std::size_t j = 0; j < n_listen; ++j) {
      const NodeId listener = active_receivers[j];
      const ListenerDraw cand = listener_candidate(listener);
      if (cand.hit == kNoIntent) continue;
      const TxIntent& heard = intents[cand.hit];
      const std::uint64_t key =
          channel_draw_seed(config.keyed_seed, slot, heard.sender, listener,
                            heard.packet, kDrawOverhear);
      listen_hit_[j] = keyed_unit(key) < cand.prob ? cand.hit : kOverhearLost;
    }
  }

  // ---- Phase 3: apply in fixed index order: patch unicast winners, then
  // append overhears in ascending listener order.
  phase.emplace(timing, Stage::kChannelApply, "slot", slot);
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
  phase->arg1("items", last_draw_count_);
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
