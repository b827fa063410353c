// Physical channel resolution for one slot.
//
// Rules (paper §III-B):
//  * semi-duplex — a node that transmits cannot receive in the same slot;
//  * unicast loss — each transmission independently succeeds with the
//    link's PRR;
//  * collision — two concurrent transmissions addressed to the same
//    receiver destroy each other (no capture effect), unless the protocol
//    runs in oracle mode (OPT assumes no collisions);
//  * overhearing — an active node that is neither transmitting nor the
//    addressee decodes an audible transmission with the link's PRR,
//    provided exactly one transmission is audible to it (otherwise the
//    overhear attempt is itself a collision).
//
// Resolution runs as a two-phase SoA kernel (DESIGN.md §11): phase 1
// *gathers* every Bernoulli draw the slot needs into flat arrays (sender,
// receiver, packet, probability), phase 2 *realizes* the draws, and phase 3
// *applies* them back onto the results in fixed order. How phase 2 draws is
// governed by ChannelRngMode below.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ldcf/common/rng.hpp"
#include "ldcf/common/types.hpp"
#include "ldcf/sim/flooding_protocol.hpp"
#include "ldcf/sim/profiler.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::obs {
class Timeline;  // obs/timeline.hpp; the kernel only carries the pointer.
}

namespace ldcf::sim {

class WorkerPool;

/// How channel loss draws are realized.
enum class ChannelRngMode : std::uint8_t {
  /// One shared sequential RNG stream, consumed in the engine's historical
  /// order (unicast draws in intent order, then overhear draws in ascending
  /// listener order). Preserves every golden fingerprint bit-for-bit, but
  /// couples every draw to every draw before it — inherently serial.
  kSequential = 0,
  /// Counter-based draws keyed by (channel seed, slot, unordered link pair,
  /// packet, draw kind) via channel_draw_seed(). Each realization is a pure
  /// function of what is drawn, so results are independent of evaluation
  /// order and commute with channel_threads. Statistically equivalent to
  /// kSequential but a different realization, so fingerprints differ.
  kSlotKeyed = 1,
};

struct ChannelConfig {
  bool collisions = true;    ///< same-receiver concurrent tx collide.
  bool overhearing = false;  ///< model promiscuous reception.
  double prr_scale = 1.0;    ///< link-quality multiplier (burst injection).
  /// Capture effect (Flash-flooding-style, [17] in the paper): when several
  /// transmissions target one receiver, the strongest survives *if* its
  /// link quality exceeds the runner-up by at least this factor; 0 disables
  /// capture (every same-receiver overlap is destructive).
  double capture_ratio = 0.0;
  ChannelRngMode rng_mode = ChannelRngMode::kSequential;
  /// Base seed for channel_draw_seed (kSlotKeyed only; the engine passes
  /// its channel substream seed so keyed draws stay a function of
  /// SimConfig::seed).
  std::uint64_t keyed_seed = 0;
  /// Worker count for the draw phase. Only kSlotKeyed can fan out (its
  /// draws commute); kSequential ignores this and stays serial. Values
  /// <= 1 mean no helper threads.
  std::uint32_t threads = 1;
  /// Span timeline, or nullptr for none. When attached, resolve records
  /// channel_gather/channel_draw/channel_apply phase spans on the calling
  /// thread and a channel_draw_chunk span per WorkerPool worker. Purely
  /// observational; never affects draws or results.
  obs::Timeline* timeline = nullptr;
};

/// One successful overhear: `listener` decoded `packet` sent by `sender`.
struct OverhearEvent {
  NodeId listener = kNoNode;
  NodeId sender = kNoNode;
  PacketId packet = kNoPacket;
};

struct SlotResolution {
  std::vector<TxResult> results;
  std::vector<OverhearEvent> overhears;
};

/// Stateful slot resolver. All node-indexed scratch arrays are allocated
/// once at construction and recycled via dirty lists, so resolving a slot
/// performs no heap allocations beyond growing the caller's output vectors
/// (and the draw-batch SoA arrays) to their steady-state capacity. One
/// Channel serves one topology; calls are independent (no state carries
/// over between slots).
class Channel {
 public:
  explicit Channel(const topology::Topology& topo);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Resolve one slot's intents into `out` (cleared first; capacity is
  /// reused). `active_receivers` must reflect the schedule; intents must
  /// already be validated (sender holds the packet, receiver is an active
  /// neighbor). `slot` keys the draws in kSlotKeyed mode (ignored under
  /// kSequential). `profiler`, when non-null, receives the
  /// channel_gather/channel_draw/channel_apply sub-stage timings. Throws
  /// InternalError if a sender appears twice.
  void resolve(std::span<const TxIntent> intents,
               std::span<const NodeId> active_receivers, SlotIndex slot,
               const ChannelConfig& config, Rng& rng, SlotResolution& out,
               StageProfiler* profiler = nullptr);

  /// Bernoulli draws realized by the last resolve() call (unicast losses
  /// plus overhear attempts). Exposed for the channel-throughput bench.
  [[nodiscard]] std::uint64_t last_draw_count() const noexcept {
    return last_draw_count_;
  }

 private:
  static constexpr std::uint32_t kNoIntent = 0xffffffffU;
  // Draw kinds for channel_draw_seed: a unicast loss draw and an overhear
  // decode draw on the same (slot, pair, packet) must not share a key.
  static constexpr std::uint32_t kDrawUnicast = 0;
  static constexpr std::uint32_t kDrawOverhear = 1;
  // Below this many phase-2 items the pool dispatch overhead dwarfs the
  // draw work; run serially (a pure performance gate — keyed draws are
  // order-independent, so the results are identical either way).
  static constexpr std::size_t kMinParallelItems = 256;

  void reset_scratch();
  WorkerPool& pool(std::uint32_t threads);

  const topology::Topology& topo_;

  // Sender/receiver-indexed scratch, recycled through the dirty lists.
  std::vector<std::uint8_t> transmitting_;
  std::vector<NodeId> tx_dirty_;
  std::vector<std::uint32_t> intents_on_receiver_;  // unicast count.
  std::vector<double> rx_best_prr_;                 // capture pre-pass.
  std::vector<double> rx_second_prr_;
  std::vector<std::uint32_t> rx_best_intent_;
  std::vector<std::uint32_t> captured_;
  std::vector<NodeId> rx_dirty_;

  // Listener-indexed scratch for the overhearing/broadcast pass.
  std::vector<std::uint32_t> audible_count_;
  std::vector<double> listen_best_prr_;
  std::vector<double> listen_second_prr_;
  std::vector<std::uint32_t> listen_best_intent_;
  std::vector<std::uint32_t> listen_last_intent_;
  std::vector<NodeId> listen_dirty_;
  // Awake marks of the slot's active receivers, set and cleared around the
  // scatter (all-zero between calls).
  std::vector<std::uint8_t> awake_;

  std::vector<NodeId> broadcast_senders_;  // recomputed each slot.

  // Phase-1 SoA draw batch: one entry per pending unicast loss draw.
  std::vector<std::uint32_t> uni_result_;  // index into out.results.
  std::vector<NodeId> uni_sender_;
  std::vector<NodeId> uni_receiver_;
  std::vector<PacketId> uni_packet_;
  std::vector<double> uni_prob_;
  std::vector<std::uint64_t> uni_bits_;  // phase-2 outcome bitset.

  // Phase-2 per-listener outcome: index of the intent the listener
  // successfully overheard, or kNoIntent. Indexed like active_receivers.
  std::vector<std::uint32_t> listen_hit_;

  std::uint64_t last_draw_count_ = 0;

  // Lazily created when a kSlotKeyed resolve requests > 1 thread; kept
  // across slots so dispatch is two notify round trips, not thread spawns.
  std::unique_ptr<WorkerPool> pool_;
};

/// Resolve one slot's intents. Compatibility wrapper over Channel for
/// call sites that resolve occasionally; hot loops should hold a Channel.
[[nodiscard]] SlotResolution resolve_slot(
    const topology::Topology& topo, const std::vector<TxIntent>& intents,
    const std::vector<NodeId>& active_receivers, const ChannelConfig& config,
    Rng& rng);

}  // namespace ldcf::sim
