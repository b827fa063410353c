// TraceObserver round-trip: a run's JSONL event stream, parsed back, must
// reproduce the metrics the engine reported for the same run and equal the
// in-memory recording of it event for event; the reader rejects malformed
// lines with a typed error that names the line.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>

#include "ldcf/common/error.hpp"
#include "ldcf/protocols/registry.hpp"
#include "ldcf/sim/observer.hpp"
#include "ldcf/sim/simulator.hpp"
#include "ldcf/sim/trace_observer.hpp"
#include "ldcf/topology/generators.hpp"

namespace {

using namespace ldcf;

topology::Topology small_topology() {
  topology::ClusterConfig config;
  config.base.num_sensors = 30;
  config.base.area_side_m = 180.0;
  config.base.radio.path_loss_exponent = 3.3;
  config.base.seed = 11;
  config.num_clusters = 3;
  config.cluster_sigma_m = 25.0;
  return topology::make_clustered(config);
}

sim::SimConfig small_config() {
  sim::SimConfig config;
  config.num_packets = 6;
  config.duty = DutyCycle{10};
  config.seed = 21;
  return config;
}

TEST(TraceObserver, RoundTripsThroughTheReader) {
  const topology::Topology topo = small_topology();
  const sim::SimConfig config = small_config();

  std::stringstream trace;
  sim::TraceObserver observer(trace);
  auto proto = protocols::make_protocol("dbao");
  const sim::SimResult res =
      sim::run_simulation(topo, config, *proto, &observer);

  const std::vector<sim::TraceEvent> events = sim::read_event_trace(trace);
  ASSERT_FALSE(events.empty());

  std::uint64_t tx_count = 0;
  std::uint64_t delivery_count = 0;
  std::uint64_t generate_count = 0;
  std::map<PacketId, SlotIndex> covered_slots;
  for (const sim::TraceEvent& ev : events) {
    switch (ev.kind) {
      case sim::TraceEvent::Kind::kTx:
        ++tx_count;
        break;
      case sim::TraceEvent::Kind::kDelivery:
        ++delivery_count;
        break;
      case sim::TraceEvent::Kind::kGenerate:
        EXPECT_EQ(res.metrics.packets[ev.packet].generated_at, ev.slot);
        ++generate_count;
        break;
      case sim::TraceEvent::Kind::kCovered:
        covered_slots[ev.packet] = ev.slot;
        break;
      default:
        break;
    }
  }

  EXPECT_EQ(tx_count, res.metrics.channel.attempts);
  EXPECT_EQ(generate_count, config.num_packets);

  std::uint64_t metric_deliveries = 0;
  for (const auto& rec : res.metrics.packets) {
    metric_deliveries += rec.deliveries;
    if (rec.covered()) {
      ASSERT_TRUE(covered_slots.contains(rec.packet));
      EXPECT_EQ(covered_slots[rec.packet], rec.covered_at);
    }
  }
  EXPECT_EQ(delivery_count, metric_deliveries);

  const sim::TraceEvent& last = events.back();
  ASSERT_EQ(last.kind, sim::TraceEvent::Kind::kRunEnd);
  EXPECT_EQ(last.end_slot, res.metrics.end_slot);
  EXPECT_EQ(last.all_covered, res.metrics.all_covered);
  EXPECT_EQ(last.truncated, res.metrics.truncated);
}

TEST(TraceObserver, FileVariantRoundTrips) {
  const topology::Topology topo = small_topology();
  const std::string path = testing::TempDir() + "ldcf_trace_test.jsonl";

  {
    sim::TraceObserver observer(path);
    auto proto = protocols::make_protocol("opt");
    (void)sim::run_simulation(topo, small_config(), *proto, &observer);
  }

  const std::vector<sim::TraceEvent> events =
      sim::read_event_trace_file(path);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, sim::TraceEvent::Kind::kRunEnd);
  std::remove(path.c_str());
}

TEST(TraceObserver, ElidesIdleSlotsByDefault) {
  const topology::Topology topo = small_topology();
  const sim::SimConfig config = small_config();
  auto count_slot_begins = [&](bool include_idle) {
    std::stringstream trace;
    sim::TraceObserver observer(trace, include_idle);
    auto proto = protocols::make_protocol("dbao");
    const sim::SimResult res =
        sim::run_simulation(topo, config, *proto, &observer);
    std::uint64_t begins = 0;
    for (const auto& ev : sim::read_event_trace(trace)) {
      if (ev.kind == sim::TraceEvent::Kind::kSlotBegin) ++begins;
    }
    return std::pair{begins, res.metrics.end_slot};
  };
  const auto [elided, end_slot] = count_slot_begins(false);
  const auto [full, end_slot2] = count_slot_begins(true);
  EXPECT_EQ(end_slot, end_slot2);
  EXPECT_EQ(full, end_slot);  // one line per simulated slot.
  EXPECT_LT(elided, full);    // low duty => most slots are silent.
  EXPECT_GT(elided, 0u);
}

// include_idle_slots=true must log every simulated slot exactly once, in
// order, and the round-tripped events must carry the right slot indices.
TEST(TraceObserver, FullTraceLogsEverySlotInOrder) {
  const topology::Topology topo = small_topology();
  std::stringstream trace;
  sim::TraceObserver observer(trace, /*include_idle_slots=*/true);
  auto proto = protocols::make_protocol("dbao");
  const sim::SimResult res =
      sim::run_simulation(topo, small_config(), *proto, &observer);

  SlotIndex expected = 0;
  for (const auto& ev : sim::read_event_trace(trace)) {
    if (ev.kind != sim::TraceEvent::Kind::kSlotBegin) continue;
    EXPECT_EQ(ev.slot, expected);
    ++expected;
  }
  EXPECT_EQ(expected, res.metrics.end_slot);
}

// The elision contract, exactly: the elided trace is the full trace minus
// the slot_begin lines of slots that produced no other event (the trailing
// idle slot included). Everything else matches line for line.
TEST(TraceObserver, ElidedTraceIsFullTraceMinusIdleSlotBegins) {
  const topology::Topology topo = small_topology();
  const sim::SimConfig config = small_config();
  auto record = [&](bool include_idle) {
    std::stringstream trace;
    sim::TraceObserver observer(trace, include_idle);
    auto proto = protocols::make_protocol("opt");
    (void)sim::run_simulation(topo, config, *proto, &observer);
    return sim::read_event_trace(trace);
  };
  const std::vector<sim::TraceEvent> full = record(true);
  const std::vector<sim::TraceEvent> elided = record(false);

  // A slot_begin survives elision iff another event follows it before the
  // next slot_begin (run_end does not rescue a trailing idle slot).
  std::vector<sim::TraceEvent> expected;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i].kind == sim::TraceEvent::Kind::kSlotBegin) {
      const bool busy = i + 1 < full.size() &&
                        full[i + 1].kind != sim::TraceEvent::Kind::kSlotBegin &&
                        full[i + 1].kind != sim::TraceEvent::Kind::kRunEnd;
      if (!busy) continue;
    }
    expected.push_back(full[i]);
  }

  ASSERT_EQ(elided.size(), expected.size());
  for (std::size_t i = 0; i < elided.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(elided[i].kind, expected[i].kind);
    EXPECT_EQ(elided[i].slot, expected[i].slot);
    EXPECT_EQ(elided[i].active, expected[i].active);
    EXPECT_EQ(elided[i].packet, expected[i].packet);
  }
}

void expect_same_events(const std::vector<sim::TraceEvent>& a,
                        const std::vector<sim::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("event " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_EQ(a[i].active, b[i].active);
    EXPECT_EQ(a[i].sender, b[i].sender);
    EXPECT_EQ(a[i].receiver, b[i].receiver);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].from, b[i].from);
    EXPECT_EQ(a[i].packet, b[i].packet);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].duplicate, b[i].duplicate);
    EXPECT_EQ(a[i].overheard, b[i].overheard);
    EXPECT_EQ(a[i].end_slot, b[i].end_slot);
    EXPECT_EQ(a[i].all_covered, b[i].all_covered);
    EXPECT_EQ(a[i].truncated, b[i].truncated);
  }
}

// One recorder, two sinks: the in-memory recording and the JSONL stream
// (parsed back) of the same run are equal event for event — for every
// protocol, on the dense and the compact path, with idle slots on and off.
TEST(TraceObserver, InMemoryMatchesStreamedJsonlForEveryProtocol) {
  const topology::Topology topo = small_topology();
  for (const std::string& name : protocols::protocol_names()) {
    for (const bool compact : {false, true}) {
      for (const bool include_idle : {false, true}) {
        SCOPED_TRACE(name + (compact ? " compact" : " dense") +
                     (include_idle ? " full" : " elided"));
        sim::SimConfig config = small_config();
        config.compact_time = compact;
        std::stringstream trace;
        sim::TraceObserver streamed(trace, include_idle);
        sim::TraceObserver recorded(include_idle);
        sim::MultiObserver fan_out;
        fan_out.add(&streamed);
        fan_out.add(&recorded);
        auto proto = protocols::make_protocol(name);
        (void)sim::run_simulation(topo, config, *proto, &fan_out);
        EXPECT_TRUE(streamed.events().empty());
        ASSERT_FALSE(recorded.events().empty());
        expect_same_events(recorded.events(), sim::read_event_trace(trace));
      }
    }
  }
}

TEST(TraceObserver, TakeMovesTheRecordingOut) {
  sim::TraceObserver recorder;
  recorder.on_generate(0, 7);
  ASSERT_EQ(recorder.events().size(), 1u);
  const std::vector<sim::TraceEvent> taken = recorder.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(recorder.events().empty());
  recorder.on_generate(1, 9);
  EXPECT_EQ(recorder.events().size(), 1u);
}

// Parse `text` and return the reader's error message ("" if it parsed).
std::string reader_error(const std::string& text) {
  std::stringstream in(text);
  try {
    (void)sim::read_event_trace(in);
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "";
}

const char* const kGoodLine =
    "{\"event\":\"generate\",\"slot\":3,\"packet\":1}\n";

TEST(TraceObserver, ReaderRejectsNodeIdsBeyond32BitsInsteadOfTruncating) {
  // 4294967297 = 2^32 + 1: a truncating cast would read node 1.
  const std::string error = reader_error(
      "{\"event\":\"tx\",\"slot\":5,\"sender\":4294967297,\"receiver\":2,"
      "\"packet\":0,\"outcome\":\"delivered\",\"duplicate\":false}\n");
  EXPECT_NE(error.find("at line 1"), std::string::npos) << error;
  EXPECT_NE(error.find("sender"), std::string::npos) << error;
}

TEST(TraceObserver, ReaderRejectsSlotsBeyond64BitsInsteadOfWrapping) {
  // 2^64: a wrapping parse would read slot 0.
  const std::string error = reader_error(
      std::string(kGoodLine) +
      "{\"event\":\"covered\",\"packet\":1,"
      "\"slot\":18446744073709551616}\n");
  EXPECT_NE(error.find("at line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("slot"), std::string::npos) << error;
}

TEST(TraceObserver, ReaderErrorsNameTheLine) {
  // Blank lines count: the bad event sits on line 4.
  const std::string error = reader_error(
      std::string(kGoodLine) + "\n" + kGoodLine +
      "{\"event\":\"generate\",\"slot\":-3,\"packet\":1}\n");
  EXPECT_NE(error.find("at line 4"), std::string::npos) << error;
}

TEST(TraceObserver, ReaderRejectsTrailingContentAndUnknownKeys) {
  const std::string trailing = reader_error(
      "{\"event\":\"generate\",\"slot\":3,\"packet\":1}junk\n");
  EXPECT_NE(trailing.find("at line 1"), std::string::npos) << trailing;
  const std::string extra = reader_error(
      "{\"event\":\"generate\",\"slot\":3,\"packet\":1,\"node\":2}\n");
  EXPECT_NE(extra.find("at line 1"), std::string::npos) << extra;
  EXPECT_EQ(reader_error(kGoodLine), "");
}

TEST(TraceObserver, ReaderRejectsMalformedLines) {
  std::stringstream bad_kind("{\"event\":\"nope\"}\n");
  EXPECT_THROW((void)sim::read_event_trace(bad_kind), InvalidArgument);
  std::stringstream missing_key("{\"event\":\"generate\",\"slot\":3}\n");
  EXPECT_THROW((void)sim::read_event_trace(missing_key), InvalidArgument);
  std::stringstream bad_number(
      "{\"event\":\"generate\",\"slot\":x,\"packet\":1}\n");
  EXPECT_THROW((void)sim::read_event_trace(bad_number), InvalidArgument);
}

}  // namespace
