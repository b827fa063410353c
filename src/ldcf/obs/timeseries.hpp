// Simulation-time telemetry: windowed metric series, network hot-spot maps
// and anomaly rules.
//
// End-of-run aggregates (registry counters, histograms) say *what* a run
// produced; they cannot say *when* — a collision storm at slot 40k and a
// smooth run report identical totals. TimeSeriesObserver records the
// trajectory instead: fixed-width simulation-time windows of coverage
// growth, new-holder counts, tx outcomes, duplicate/overhear activity and
// energy burn, plus a per-node/per-link accumulator that rolls tx, collision
// and energy counts into a top-K contended-links table and a spatial heatmap
// binned on the topology's spatial-hash grid.
//
// Exactness under compact time is the design constraint: the observer never
// returns wants_every_slot() == true, so attaching it cannot force the dense
// path. Event-driven counters are trivially exact (skipped slots are
// provably inert); the one per-slot quantity — listening energy — arrives as
// on_slot_listeners for executed slots and as on_idle_gap for skipped gaps,
// which the observer settles into windows in closed form from the gap's
// per-phase live counts (the same arithmetic as the engine's own
// skipped_by_phase_ tally settlement). The differential suite proves the
// windows bit-identical between dense and compact execution.
//
// Window storage auto-coarsens: if a run outgrows kMaxWindows, the width
// doubles and adjacent windows merge (sums are preserved exactly), the same
// trick as Histogram's auto-ranging. Merging across repetitions/threads is
// elementwise integer addition — order-independent — with width alignment by
// the same coarsening; reduce_trials folds per-trial series into a
// ProtocolPoint bit-identically for any thread count.
//
// The anomaly rules (coverage stall, collision-rate spike vs a trailing
// baseline, energy-burn outlier nodes) are pure functions of the finished
// window array, evaluated at run end for the artifact and on demand via
// TimeSeriesObserver::current_causes() so a tripped WatchdogObserver can
// embed the likely cause into its ldcf.health.v1 diagnostic.
//
// Serialization: `ldcf.timeseries.v1` (windows + totals + anomalies) and
// `ldcf.netmap.v1` (grid heatmap + top-K contended links + hottest nodes),
// as embeddable report fragments and standalone artifacts.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ldcf/common/types.hpp"
#include "ldcf/obs/json_writer.hpp"
#include "ldcf/sim/engine.hpp"
#include "ldcf/sim/observer.hpp"
#include "ldcf/topology/topology.hpp"

namespace ldcf::obs {

struct TimeSeriesOptions {
  /// Width of one accumulation window in simulation slots; must be >= 1.
  std::uint64_t window_slots = 1024;
  /// Rows in the contended-links / hottest-nodes tables; [1, 65536].
  std::uint32_t top_k = 10;
  /// Cost model for the windowed energy burn series (listen/tx/rx terms;
  /// sleep is excluded — it is flat by construction). Pass the run's
  /// SimConfig::energy so the series sums match the run's EnergyReport.
  sim::EnergyModel energy{};
};

/// Window-count ceiling before the width doubles (auto-coarsening): bounds
/// a 10M-slot run to ~64k windows.
inline constexpr std::uint64_t kMaxWindows = std::uint64_t{1} << 16;

// Anomaly rule thresholds (see evaluate_anomalies).
/// Coverage stall: consecutive windows with packets in flight but no
/// coverage progress and no new holders.
inline constexpr std::uint64_t kStallWindows = 8;
/// Collision-rate spike: a window whose collisions/attempts exceed
/// kSpikeFactor x the rate over the last kSpikeBaselineWindows windows with
/// attempts (or 0.5 absolute when that baseline is collision-free). Windows
/// with fewer than kSpikeMinAttempts attempts are not judged.
inline constexpr double kSpikeFactor = 4.0;
inline constexpr std::uint64_t kSpikeMinAttempts = 64;
inline constexpr std::size_t kSpikeBaselineWindows = 8;
/// Energy-burn outlier: nodes above mean + kOutlierSigma * stddev of the
/// per-node energy (needs >= 8 nodes).
inline constexpr double kOutlierSigma = 3.0;

/// Throws InvalidArgument on window_slots == 0 or top_k out of [1, 65536].
void validate(const TimeSeriesOptions& options);

/// One window's counters. All event counts are exact integers so merges
/// commute; derived ratios/energy are computed at serialization time.
struct SeriesWindow {
  std::uint64_t generated = 0;      ///< packets generated in the window.
  std::uint64_t covered = 0;        ///< packets whose coverage completed.
  std::uint64_t new_holders = 0;    ///< fresh first copies (any path).
  /// The window's tx outcomes and fresh overheard copies, counted exactly
  /// as the engine counts the run's (ChannelCounters::record).
  sim::ChannelCounters channel;
  std::uint64_t overhears = 0;     ///< promiscuous decodes (any freshness).
  std::uint64_t listen_slots = 0;   ///< node-slots spent listening.

  void add(const SeriesWindow& other);
};

/// One detected anomaly, tagged by the slot range it covers.
struct SeriesAnomaly {
  std::string rule;     ///< "coverage_stall"|"collision_spike"|"energy_outlier".
  std::uint64_t start_slot = 0;    ///< first slot of the offending range.
  std::uint64_t window_slots = 0;  ///< window width at detection (0: run-wide).
  double value = 0.0;              ///< the offending measurement.
  double baseline = 0.0;           ///< what it was compared against.
  std::string message;
};

/// The mergeable windowed series of one or more trials.
struct TimeSeries {
  std::uint64_t base_window_slots = 0;  ///< configured width.
  std::uint64_t window_slots = 0;       ///< effective width (base * 2^k).
  std::uint64_t end_slot = 0;           ///< max end slot across trials.
  std::uint64_t trials = 0;
  sim::EnergyModel energy{};            ///< cost model for burn-rate output.
  std::vector<SeriesWindow> windows;
  std::vector<SeriesAnomaly> anomalies;  ///< concatenated in merge order.

  [[nodiscard]] bool empty() const { return trials == 0; }

  /// Elementwise merge. Widths align by coarsening the finer series (both
  /// are base * 2^k of the same base; mismatched bases throw). Counter
  /// addition commutes, so merged windows are independent of merge order;
  /// anomalies concatenate in call order (deterministic under the
  /// index-ordered trial reduction).
  void merge(const TimeSeries& other);

  /// Double the window width in place, pairwise-merging windows. Sums are
  /// preserved exactly.
  void coarsen();

  /// The cost-model energy burned in `w`: listen/tx/rx terms only.
  [[nodiscard]] double window_energy(const SeriesWindow& w) const;
};

/// Per-link tallies, keyed (sender << 32) | receiver; unicasts only.
struct LinkTally {
  std::uint64_t attempts = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collisions = 0;
  std::uint64_t receiver_busy = 0;
  std::uint64_t losses = 0;
  std::uint64_t sync_misses = 0;

  /// Attempts that delivered nothing — the contention ranking key.
  [[nodiscard]] std::uint64_t contention() const {
    return collisions + receiver_busy + losses + sync_misses;
  }
};

struct NodeTally {
  std::uint64_t tx_attempts = 0;    ///< from the run's ActivityTally.
  std::uint64_t collisions_rx = 0;  ///< collisions at this node's radio.
  std::uint64_t receptions = 0;     ///< decodes (addressed + overheard), ditto.
  double energy = 0.0;              ///< final per-node charge (run end).
};

struct CellTally {
  std::uint64_t tx_attempts = 0;  ///< binned by sender position.
  std::uint64_t collisions = 0;   ///< binned by receiver position.
  std::uint64_t deliveries = 0;   ///< fresh copies, by receiver position.
  double energy = 0.0;            ///< summed node energy in the cell.
  std::uint64_t nodes = 0;        ///< nodes bucketed here (topology fact).
};

/// The mergeable network hot-spot map of one or more trials.
struct NetMap {
  std::uint64_t trials = 0;
  std::uint32_t top_k = 10;
  std::size_t grid_cols = 0;
  std::size_t grid_rows = 0;
  double cell_size = 0.0;  ///< effective cell side, meters.
  std::vector<NodeTally> nodes;  ///< indexed by NodeId.
  std::vector<CellTally> cells;  ///< indexed by grid cell.
  std::unordered_map<std::uint64_t, LinkTally> links;

  [[nodiscard]] bool empty() const { return trials == 0; }

  /// Elementwise merge; requires identical node count and grid shape
  /// (same topology), throws InvalidArgument otherwise.
  void merge(const NetMap& other);

  /// Links ranked by contention desc (ties: attempts desc, then key asc —
  /// a deterministic total order), truncated to top_k.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, LinkTally>> top_links()
      const;

  /// Node ids ranked by energy desc (ties: tx_attempts desc, id asc),
  /// truncated to top_k.
  [[nodiscard]] std::vector<NodeId> top_nodes() const;
};

/// Evaluate the anomaly rules over `series` (and per-node energy when
/// `netmap` is non-null). Pure: same inputs, same findings.
[[nodiscard]] std::vector<SeriesAnomaly> evaluate_anomalies(
    const TimeSeries& series, const NetMap* netmap);

/// The observer. Construction validates options and bins the topology;
/// attach to a run (alone or in a MultiObserver), then read series() and
/// netmap() after on_run_end — or take_*() to move them into TrialStats.
/// wants_every_slot() stays false: compact-time runs stay compact.
class TimeSeriesObserver final : public sim::SimObserver {
 public:
  explicit TimeSeriesObserver(const topology::Topology& topo,
                              const TimeSeriesOptions& options = {});

  void on_generate(PacketId packet, SlotIndex slot) override;
  void on_tx_result(const sim::TxResult& result, SlotIndex slot) override;
  void on_delivery(NodeId node, PacketId packet, NodeId from, bool overheard,
                   SlotIndex slot) override;
  void on_overhear(NodeId listener, NodeId sender, PacketId packet, bool fresh,
                   SlotIndex slot) override;
  void on_packet_covered(PacketId packet, SlotIndex covered_at) override;
  void on_slot_listeners(SlotIndex slot, std::uint64_t listeners) override;
  void on_idle_gap(SlotIndex from, SlotIndex to,
                   std::span<const std::uint64_t> live_by_phase) override;
  void on_run_end(const sim::SimResult& result) override;

  /// Anomalies for the run so far (energy outliers only after run end) —
  /// the watchdog's cause feed.
  [[nodiscard]] std::vector<std::string> current_causes() const;

  [[nodiscard]] const TimeSeries& series() const { return series_; }
  [[nodiscard]] const NetMap& netmap() const { return netmap_; }
  [[nodiscard]] TimeSeries take_series() { return std::move(series_); }
  [[nodiscard]] NetMap take_netmap() { return std::move(netmap_); }

 private:
  SeriesWindow& window_at(SlotIndex slot);

  TimeSeries series_;
  NetMap netmap_;
  std::vector<std::uint32_t> cell_of_node_;  ///< node -> heat cell.
  bool finalized_ = false;
};

// --- Serialization -------------------------------------------------------

/// Write `series` as one JSON object (the body of `ldcf.timeseries.v1`,
/// sans schema/provenance): widths, totals, per-window rows with derived
/// energy and cumulative in-flight, anomalies.
void write_timeseries(JsonWriter& json, const TimeSeries& series);

/// Write `map` as one JSON object (the body of `ldcf.netmap.v1`): grid
/// shape, non-empty cells, top-K contended links and hottest nodes.
void write_netmap(JsonWriter& json, const NetMap& map);

/// Everything a standalone series/netmap artifact needs.
struct SeriesReportContext {
  std::string tool;      ///< e.g. "flood_sim".
  std::string protocol;  ///< protocol registry name.
  const topology::Topology* topo = nullptr;  ///< optional topology summary.
  const TimeSeries* series = nullptr;        ///< for the timeseries artifact.
  const NetMap* netmap = nullptr;            ///< for the netmap artifact.
};

/// Serialize a complete `ldcf.timeseries.v1` document.
void write_timeseries_report(std::ostream& out,
                             const SeriesReportContext& context);
void write_timeseries_report_file(const std::string& path,
                                  const SeriesReportContext& context);

/// Serialize a complete `ldcf.netmap.v1` document.
void write_netmap_report(std::ostream& out,
                         const SeriesReportContext& context);
void write_netmap_report_file(const std::string& path,
                              const SeriesReportContext& context);

}  // namespace ldcf::obs
