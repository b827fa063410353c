#include "ldcf/obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "ldcf/common/error.hpp"
#include "ldcf/obs/atomic_file.hpp"
#include "ldcf/obs/report.hpp"
#include "ldcf/schedule/calendar_queue.hpp"
#include "ldcf/topology/geometry.hpp"
#include "ldcf/topology/spatial_hash.hpp"

namespace ldcf::obs {

namespace {

constexpr std::uint32_t kMaxTopK = 65536;
constexpr std::size_t kAutoGridCells = 24;  ///< heat cell: long side / 24.
constexpr std::size_t kOutlierMinNodes = 8;

std::uint64_t link_key(NodeId sender, NodeId receiver) {
  return (static_cast<std::uint64_t>(sender) << 32) |
         static_cast<std::uint64_t>(receiver);
}

}  // namespace

void validate(const TimeSeriesOptions& options) {
  if (options.window_slots == 0) {
    throw InvalidArgument("timeseries: window_slots must be >= 1");
  }
  if (options.top_k == 0 || options.top_k > kMaxTopK) {
    std::ostringstream msg;
    msg << "timeseries: top_k must be in [1, " << kMaxTopK << "], got "
        << options.top_k;
    throw InvalidArgument(msg.str());
  }
}

// --- SeriesWindow / TimeSeries -------------------------------------------

void SeriesWindow::add(const SeriesWindow& other) {
  generated += other.generated;
  covered += other.covered;
  new_holders += other.new_holders;
  channel.add(other.channel);
  overhears += other.overhears;
  listen_slots += other.listen_slots;
}

void TimeSeries::coarsen() {
  window_slots *= 2;
  const std::size_t merged = (windows.size() + 1) / 2;
  for (std::size_t i = 0; i < merged; ++i) {
    SeriesWindow w = windows[2 * i];
    if (2 * i + 1 < windows.size()) w.add(windows[2 * i + 1]);
    windows[i] = w;
  }
  windows.resize(merged);
}

void TimeSeries::merge(const TimeSeries& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (base_window_slots != other.base_window_slots) {
    throw InvalidArgument("timeseries: cannot merge series with different "
                          "base window widths");
  }
  // Widths are base * 2^k; align by coarsening whichever side is finer.
  // Coarsening preserves sums exactly, so the merged counters are the same
  // integers regardless of merge order.
  while (window_slots < other.window_slots) coarsen();
  const TimeSeries* rhs = &other;
  TimeSeries coarser;  // local copy only when `other` is the finer side.
  if (other.window_slots < window_slots) {
    coarser = other;
    while (coarser.window_slots < window_slots) coarser.coarsen();
    rhs = &coarser;
  }
  if (rhs->window_slots != window_slots) {
    throw InvalidArgument("timeseries: window widths do not align");
  }
  if (rhs->windows.size() > windows.size()) {
    windows.resize(rhs->windows.size());
  }
  for (std::size_t i = 0; i < rhs->windows.size(); ++i) {
    windows[i].add(rhs->windows[i]);
  }
  end_slot = std::max(end_slot, rhs->end_slot);
  trials += rhs->trials;
  anomalies.insert(anomalies.end(), rhs->anomalies.begin(),
                   rhs->anomalies.end());
}

double TimeSeries::window_energy(const SeriesWindow& w) const {
  return energy.listen_cost * static_cast<double>(w.listen_slots) +
         energy.tx_cost * static_cast<double>(w.channel.attempts) +
         energy.rx_cost *
             static_cast<double>(w.channel.delivered + w.overhears);
}

// --- NetMap ---------------------------------------------------------------

void NetMap::merge(const NetMap& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (nodes.size() != other.nodes.size() || grid_cols != other.grid_cols ||
      grid_rows != other.grid_rows || cells.size() != other.cells.size()) {
    throw InvalidArgument("netmap: cannot merge maps of different "
                          "topologies or grid shapes");
  }
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    nodes[n].tx_attempts += other.nodes[n].tx_attempts;
    nodes[n].collisions_rx += other.nodes[n].collisions_rx;
    nodes[n].receptions += other.nodes[n].receptions;
    nodes[n].energy += other.nodes[n].energy;
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    cells[c].tx_attempts += other.cells[c].tx_attempts;
    cells[c].collisions += other.cells[c].collisions;
    cells[c].deliveries += other.cells[c].deliveries;
    cells[c].energy += other.cells[c].energy;
    // `nodes` is a topology fact, identical on both sides: not summed.
  }
  for (const auto& [key, tally] : other.links) {
    LinkTally& mine = links[key];
    mine.attempts += tally.attempts;
    mine.delivered += tally.delivered;
    mine.collisions += tally.collisions;
    mine.receiver_busy += tally.receiver_busy;
    mine.losses += tally.losses;
    mine.sync_misses += tally.sync_misses;
  }
  trials += other.trials;
}

std::vector<std::pair<std::uint64_t, LinkTally>> NetMap::top_links() const {
  std::vector<std::pair<std::uint64_t, LinkTally>> ranked(links.begin(),
                                                          links.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second.contention() != b.second.contention()) {
      return a.second.contention() > b.second.contention();
    }
    if (a.second.attempts != b.second.attempts) {
      return a.second.attempts > b.second.attempts;
    }
    return a.first < b.first;
  });
  if (ranked.size() > top_k) ranked.resize(top_k);
  return ranked;
}

std::vector<NodeId> NetMap::top_nodes() const {
  std::vector<NodeId> ids(nodes.size());
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    ids[n] = static_cast<NodeId>(n);
  }
  std::sort(ids.begin(), ids.end(), [&](NodeId a, NodeId b) {
    if (nodes[a].energy != nodes[b].energy) {
      return nodes[a].energy > nodes[b].energy;
    }
    if (nodes[a].tx_attempts != nodes[b].tx_attempts) {
      return nodes[a].tx_attempts > nodes[b].tx_attempts;
    }
    return a < b;
  });
  if (ids.size() > top_k) ids.resize(top_k);
  return ids;
}

// --- Anomaly rules --------------------------------------------------------

std::vector<SeriesAnomaly> evaluate_anomalies(const TimeSeries& series,
                                              const NetMap* netmap) {
  std::vector<SeriesAnomaly> found;
  const std::uint64_t width = series.window_slots;

  // Coverage stall: a maximal streak of >= kStallWindows consecutive
  // windows that had packets in flight yet produced no coverage and no new
  // holders. One anomaly per maximal streak.
  std::uint64_t generated = 0;
  std::uint64_t covered = 0;
  std::size_t streak_start = 0;
  std::uint64_t streak = 0;
  auto flush = [&](std::size_t end_index) {
    if (streak < kStallWindows) return;
    SeriesAnomaly a;
    a.rule = "coverage_stall";
    a.start_slot = static_cast<std::uint64_t>(streak_start) * width;
    a.window_slots = width;
    a.value = static_cast<double>(streak);
    a.baseline = static_cast<double>(kStallWindows);
    std::ostringstream msg;
    msg << "no coverage progress across " << streak << " windows (slots "
        << a.start_slot << ".."
        << static_cast<std::uint64_t>(end_index) * width << ") with "
        << (generated - covered) << " packets in flight";
    a.message = msg.str();
    found.push_back(std::move(a));
  };
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    const bool in_flight = generated > covered;
    const bool stalled =
        in_flight && w.covered == 0 && w.new_holders == 0 && w.generated == 0;
    if (stalled) {
      if (streak == 0) streak_start = i;
      ++streak;
    } else {
      flush(i);
      streak = 0;
    }
    generated += w.generated;
    covered += w.covered;
  }
  flush(series.windows.size());

  // Collision-rate spike: a window whose collision rate exceeds
  // kSpikeFactor x the rate over the trailing baseline windows (those with
  // attempts), or an absolute 0.5 when the baseline was collision-free.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> base;  // (coll, att)
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    const std::uint64_t attempts = w.channel.attempts;
    const std::uint64_t collisions = w.channel.collisions;
    if (attempts >= kSpikeMinAttempts && !base.empty()) {
      std::uint64_t base_coll = 0;
      std::uint64_t base_att = 0;
      for (const auto& [coll, att] : base) {
        base_coll += coll;
        base_att += att;
      }
      const double rate = static_cast<double>(collisions) /
                          static_cast<double>(attempts);
      const double baseline = static_cast<double>(base_coll) /
                              static_cast<double>(base_att);
      const bool spike =
          baseline > 0.0 ? rate > kSpikeFactor * baseline : rate >= 0.5;
      if (spike) {
        SeriesAnomaly a;
        a.rule = "collision_spike";
        a.start_slot = static_cast<std::uint64_t>(i) * width;
        a.window_slots = width;
        a.value = rate;
        a.baseline = baseline;
        std::ostringstream msg;
        msg << "collision rate " << rate << " in window at slot "
            << a.start_slot << " vs trailing baseline " << baseline << " ("
            << collisions << "/" << attempts << " attempts)";
        a.message = msg.str();
        found.push_back(std::move(a));
      }
    }
    if (attempts > 0) {
      base.emplace_back(collisions, attempts);
      if (base.size() > kSpikeBaselineWindows) base.erase(base.begin());
    }
  }

  // Energy-burn outliers: nodes above mean + sigma * stddev of the final
  // per-node charge. Only meaningful once run-end energy has landed in the
  // netmap, and only with enough nodes for the moments to mean anything.
  if (netmap != nullptr && netmap->nodes.size() >= kOutlierMinNodes) {
    double sum = 0.0;
    for (const NodeTally& n : netmap->nodes) sum += n.energy;
    const auto count = static_cast<double>(netmap->nodes.size());
    const double mean = sum / count;
    double var = 0.0;
    for (const NodeTally& n : netmap->nodes) {
      const double d = n.energy - mean;
      var += d * d;
    }
    const double stddev = std::sqrt(var / count);
    const double threshold = mean + kOutlierSigma * stddev;
    if (stddev > 0.0) {
      for (std::size_t n = 0; n < netmap->nodes.size(); ++n) {
        const double e = netmap->nodes[n].energy;
        if (e > threshold) {
          SeriesAnomaly a;
          a.rule = "energy_outlier";
          a.start_slot = 0;
          a.window_slots = 0;  // run-wide, not window-scoped.
          a.value = e;
          a.baseline = threshold;
          std::ostringstream msg;
          msg << "node " << n << " burned " << e << " (mean " << mean
              << ", threshold " << threshold << " at " << kOutlierSigma
              << " sigma)";
          a.message = msg.str();
          found.push_back(std::move(a));
        }
      }
    }
  }

  return found;
}

// --- TimeSeriesObserver ---------------------------------------------------

TimeSeriesObserver::TimeSeriesObserver(const topology::Topology& topo,
                                       const TimeSeriesOptions& options) {
  validate(options);
  const std::span<const topology::Point2D> positions = topo.positions();
  if (positions.empty()) {
    throw InvalidArgument("timeseries: topology has no nodes");
  }
  double min_x = positions[0].x, max_x = positions[0].x;
  double min_y = positions[0].y, max_y = positions[0].y;
  for (const topology::Point2D& p : positions) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  const double side = std::max(max_x - min_x, max_y - min_y);
  const double cell =
      side > 0.0 ? side / static_cast<double>(kAutoGridCells) : 1.0;
  const topology::SpatialHashGrid grid(positions, cell);
  cell_of_node_.resize(positions.size());
  for (std::size_t n = 0; n < positions.size(); ++n) {
    cell_of_node_[n] = static_cast<std::uint32_t>(grid.cell_of(positions[n]));
  }

  series_.base_window_slots = options.window_slots;
  series_.window_slots = options.window_slots;
  series_.energy = options.energy;

  netmap_.top_k = options.top_k;
  netmap_.grid_cols = grid.cols();
  netmap_.grid_rows = grid.rows();
  netmap_.cell_size = cell;
  netmap_.nodes.resize(positions.size());
  netmap_.cells.resize(grid.num_cells());
  for (std::size_t c = 0; c < grid.num_cells(); ++c) {
    netmap_.cells[c].nodes = grid.cell_nodes(c).size();
  }
}

SeriesWindow& TimeSeriesObserver::window_at(SlotIndex slot) {
  std::uint64_t index = slot / series_.window_slots;
  while (index >= kMaxWindows) {
    series_.coarsen();
    index = slot / series_.window_slots;
  }
  if (index >= series_.windows.size()) {
    series_.windows.resize(index + 1);
  }
  if (slot + 1 > series_.end_slot) series_.end_slot = slot + 1;
  return series_.windows[index];
}

void TimeSeriesObserver::on_generate(PacketId /*packet*/, SlotIndex slot) {
  ++window_at(slot).generated;
}

void TimeSeriesObserver::on_tx_result(const sim::TxResult& result,
                                      SlotIndex slot) {
  window_at(slot).channel.record(result.outcome, result.duplicate);

  const NodeId sender = result.intent.sender;
  const NodeId receiver = result.intent.receiver;
  if (receiver == kNoNode) return;  // broadcasts have no single link.
  LinkTally& link = netmap_.links[link_key(sender, receiver)];
  ++link.attempts;
  switch (result.outcome) {
    case sim::TxOutcome::kDelivered:
      ++link.delivered;
      break;
    case sim::TxOutcome::kCollision:
      ++link.collisions;
      ++netmap_.nodes[receiver].collisions_rx;
      ++netmap_.cells[cell_of_node_[receiver]].collisions;
      break;
    case sim::TxOutcome::kReceiverBusy:
      ++link.receiver_busy;
      break;
    case sim::TxOutcome::kLostChannel:
      ++link.losses;
      break;
    case sim::TxOutcome::kSyncMiss:
      ++link.sync_misses;
      break;
    case sim::TxOutcome::kBroadcast:
      break;  // unreachable for a unicast.
  }
}

void TimeSeriesObserver::on_delivery(NodeId node, PacketId /*packet*/,
                                     NodeId /*from*/, bool /*overheard*/,
                                     SlotIndex slot) {
  ++window_at(slot).new_holders;
  ++netmap_.cells[cell_of_node_[node]].deliveries;
}

void TimeSeriesObserver::on_overhear(NodeId /*listener*/, NodeId /*sender*/,
                                     PacketId /*packet*/, bool fresh,
                                     SlotIndex slot) {
  SeriesWindow& w = window_at(slot);
  ++w.overhears;
  // A fresh overhear is the engine's overheard delivery.
  if (fresh) ++w.channel.overhear_deliveries;
}

void TimeSeriesObserver::on_packet_covered(PacketId /*packet*/,
                                           SlotIndex covered_at) {
  // covered_at is "first slot by which coverage held" (t + 1): the closing
  // delivery happened in slot covered_at - 1, so that is the window the
  // coverage event belongs to — and it stays inside [0, end_slot).
  ++window_at(covered_at - 1).covered;
}

void TimeSeriesObserver::on_slot_listeners(SlotIndex slot,
                                           std::uint64_t listeners) {
  window_at(slot).listen_slots += listeners;
}

void TimeSeriesObserver::on_idle_gap(
    SlotIndex from, SlotIndex to,
    std::span<const std::uint64_t> live_by_phase) {
  // Settle the gap's listen account window by window: each overlapped
  // window gets the live listeners of every phase in its slice of
  // [from, to), in the engine's closed form, so windowed listen accounting
  // matches dense execution bit for bit. window_at may coarsen mid-loop,
  // so the width is re-read per iteration.
  const auto period = static_cast<std::uint32_t>(live_by_phase.size());
  SlotIndex a = from;
  while (a < to) {
    SeriesWindow& w = window_at(a);
    const std::uint64_t width = series_.window_slots;
    const SlotIndex b = std::min<SlotIndex>(to, (a / width + 1) * width);
    schedule::for_each_phase_in(
        period, a, b, [&](std::uint32_t phase, std::uint64_t count) {
          w.listen_slots += count * live_by_phase[phase];
        });
    a = b;
  }
  if (to > series_.end_slot) {
    window_at(to - 1);  // materialize the gap's trailing window.
  }
}

void TimeSeriesObserver::on_run_end(const sim::SimResult& result) {
  series_.end_slot = result.metrics.end_slot;
  if (series_.end_slot > 0) {
    window_at(series_.end_slot - 1);  // materialize trailing empty windows.
  }
  series_.trials = 1;
  netmap_.trials = 1;
  // Per-node (and per-cell) tx and reception counts are the engine's own
  // tally, not a second count.
  for (std::size_t n = 0; n < result.energy.per_node.size() &&
                          n < netmap_.nodes.size();
       ++n) {
    const double e = result.energy.per_node[n];
    netmap_.nodes[n].energy = e;
    netmap_.nodes[n].tx_attempts = result.tally.tx_attempts[n];
    netmap_.nodes[n].receptions = result.tally.receptions[n];
    netmap_.cells[cell_of_node_[n]].energy += e;
    netmap_.cells[cell_of_node_[n]].tx_attempts += result.tally.tx_attempts[n];
  }
  finalized_ = true;
  series_.anomalies = evaluate_anomalies(series_, &netmap_);
}

std::vector<std::string> TimeSeriesObserver::current_causes() const {
  const std::vector<SeriesAnomaly> anomalies =
      finalized_ ? series_.anomalies : evaluate_anomalies(series_, nullptr);
  std::vector<std::string> causes;
  causes.reserve(anomalies.size());
  for (const SeriesAnomaly& a : anomalies) {
    causes.push_back(a.rule + ": " + a.message);
  }
  return causes;
}

// --- Serialization --------------------------------------------------------

namespace {

void write_window_fields(JsonWriter& json, const SeriesWindow& w) {
  json.field("generated", w.generated)
      .field("covered", w.covered)
      .field("new_holders", w.new_holders)
      .field("tx_attempts", w.channel.attempts)
      .field("delivered", w.channel.delivered)
      .field("duplicates", w.channel.duplicates)
      .field("losses", w.channel.losses)
      .field("collisions", w.channel.collisions)
      .field("receiver_busy", w.channel.receiver_busy)
      .field("sync_misses", w.channel.sync_misses)
      .field("broadcasts", w.channel.broadcasts)
      .field("overhears", w.overhears)
      .field("overhears_fresh", w.channel.overhear_deliveries)
      .field("listen_slots", w.listen_slots);
}

void write_anomaly(JsonWriter& json, const SeriesAnomaly& a) {
  json.begin_object()
      .field("rule", a.rule)
      .field("start_slot", a.start_slot)
      .field("window_slots", a.window_slots)
      .field("value", a.value)
      .field("baseline", a.baseline)
      .field("message", a.message)
      .end_object();
}

void write_report_head(JsonWriter& json, std::string_view schema,
                       const SeriesReportContext& context) {
  json.field("schema", schema)
      .field("tool", context.tool)
      .field("protocol", context.protocol);
  json.key("provenance");
  write_provenance(json, Provenance::current());
  if (context.topo != nullptr) {
    json.key("topology");
    write_topology_summary(json, *context.topo);
  }
}

}  // namespace

void write_timeseries(JsonWriter& json, const TimeSeries& series) {
  json.begin_object()
      .field("base_window_slots", series.base_window_slots)
      .field("window_slots", series.window_slots)
      .field("end_slot", series.end_slot)
      .field("num_windows", static_cast<std::uint64_t>(series.windows.size()))
      .field("trials", series.trials);

  SeriesWindow totals;
  for (const SeriesWindow& w : series.windows) totals.add(w);
  json.key("totals").begin_object();
  write_window_fields(json, totals);
  json.field("energy", series.window_energy(totals)).end_object();

  std::uint64_t generated = 0;
  std::uint64_t covered = 0;
  json.key("windows").begin_array();
  for (std::size_t i = 0; i < series.windows.size(); ++i) {
    const SeriesWindow& w = series.windows[i];
    generated += w.generated;
    covered += w.covered;
    json.begin_object().field(
        "start", static_cast<std::uint64_t>(i) * series.window_slots);
    write_window_fields(json, w);
    json.field("in_flight", generated - covered)
        .field("energy", series.window_energy(w))
        .end_object();
  }
  json.end_array();

  json.key("anomalies").begin_array();
  for (const SeriesAnomaly& a : series.anomalies) write_anomaly(json, a);
  json.end_array().end_object();
}

void write_netmap(JsonWriter& json, const NetMap& map) {
  json.begin_object()
      .field("trials", map.trials)
      .field("top_k", static_cast<std::uint64_t>(map.top_k))
      .field("num_nodes", static_cast<std::uint64_t>(map.nodes.size()));
  json.key("grid")
      .begin_object()
      .field("cols", static_cast<std::uint64_t>(map.grid_cols))
      .field("rows", static_cast<std::uint64_t>(map.grid_rows))
      .field("cell_size", map.cell_size)
      .end_object();

  // Only cells with activity (or nodes) are emitted: the artifact stays
  // proportional to the deployment, not the grid.
  json.key("cells").begin_array();
  for (std::size_t c = 0; c < map.cells.size(); ++c) {
    const CellTally& cell = map.cells[c];
    if (cell.nodes == 0 && cell.tx_attempts == 0 && cell.collisions == 0 &&
        cell.deliveries == 0) {
      continue;
    }
    json.begin_object()
        .field("cell", static_cast<std::uint64_t>(c))
        .field("col", static_cast<std::uint64_t>(
                          map.grid_cols > 0 ? c % map.grid_cols : 0))
        .field("row", static_cast<std::uint64_t>(
                          map.grid_cols > 0 ? c / map.grid_cols : 0))
        .field("nodes", cell.nodes)
        .field("tx_attempts", cell.tx_attempts)
        .field("collisions", cell.collisions)
        .field("deliveries", cell.deliveries)
        .field("energy", cell.energy)
        .end_object();
  }
  json.end_array();

  json.key("top_links").begin_array();
  for (const auto& [key, link] : map.top_links()) {
    json.begin_object()
        .field("sender", static_cast<std::uint64_t>(key >> 32))
        .field("receiver",
               static_cast<std::uint64_t>(key & 0xffffffffULL))
        .field("attempts", link.attempts)
        .field("delivered", link.delivered)
        .field("collisions", link.collisions)
        .field("receiver_busy", link.receiver_busy)
        .field("losses", link.losses)
        .field("sync_misses", link.sync_misses)
        .field("contention", link.contention())
        .end_object();
  }
  json.end_array();

  json.key("top_nodes").begin_array();
  for (const NodeId n : map.top_nodes()) {
    const NodeTally& node = map.nodes[n];
    json.begin_object()
        .field("node", static_cast<std::uint64_t>(n))
        .field("energy", node.energy)
        .field("tx_attempts", node.tx_attempts)
        .field("collisions_rx", node.collisions_rx)
        .field("receptions", node.receptions)
        .end_object();
  }
  json.end_array().end_object();
}

void write_timeseries_report(std::ostream& out,
                             const SeriesReportContext& context) {
  LDCF_REQUIRE(context.series != nullptr,
               "timeseries report needs a series");
  JsonWriter json(out);
  json.begin_object();
  write_report_head(json, "ldcf.timeseries.v1", context);
  json.key("series");
  write_timeseries(json, *context.series);
  json.end_object();
  out << '\n';
}

void write_timeseries_report_file(const std::string& path,
                                  const SeriesReportContext& context) {
  write_file_atomic(path, [&](std::ostream& out) {
    write_timeseries_report(out, context);
  });
}

void write_netmap_report(std::ostream& out,
                         const SeriesReportContext& context) {
  LDCF_REQUIRE(context.netmap != nullptr, "netmap report needs a netmap");
  JsonWriter json(out);
  json.begin_object();
  write_report_head(json, "ldcf.netmap.v1", context);
  json.key("netmap");
  write_netmap(json, *context.netmap);
  json.end_object();
  out << '\n';
}

void write_netmap_report_file(const std::string& path,
                              const SeriesReportContext& context) {
  write_file_atomic(
      path, [&](std::ostream& out) { write_netmap_report(out, context); });
}

}  // namespace ldcf::obs
