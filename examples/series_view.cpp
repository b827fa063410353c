// series_view — render an ldcf.timeseries.v1 artifact in the terminal.
//
// Turns the windowed telemetry flood_sim --series writes into something a
// human can scan: unicode sparklines for the headline series (coverage
// growth, tx attempts, collisions, energy burn), an optional full
// per-window table, and the anomaly list. Works on the standalone artifact
// and on any document embedding the same body (a run report's "timeseries"
// section is found by key).
//
// `series_view --help` lists the options.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ldcf/common/options.hpp"
#include "ldcf/obs/json_reader.hpp"

namespace {

using ldcf::obs::JsonPtr;
using ldcf::obs::JsonValue;
using ldcf::obs::parse_json;

// --- Rendering ------------------------------------------------------------

/// Downsample to at most `width` buckets by summing adjacent values, then
/// map each bucket onto the eight-step unicode block ramp.
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* kRamp[] = {"▁", "▂", "▃", "▄",
                                "▅", "▆", "▇", "█"};
  if (values.empty()) return {};
  std::vector<double> buckets;
  if (values.size() <= width) {
    buckets = values;
  } else {
    const std::size_t per =
        (values.size() + width - 1) / width;  // windows per bucket.
    buckets.resize((values.size() + per - 1) / per, 0.0);
    for (std::size_t i = 0; i < values.size(); ++i) {
      buckets[i / per] += values[i];
    }
  }
  double max_value = 0.0;
  for (const double v : buckets) max_value = std::max(max_value, v);
  std::string out;
  for (const double v : buckets) {
    if (max_value <= 0.0) {
      out += kRamp[0];
      continue;
    }
    const auto level = static_cast<std::size_t>(
        std::min(7.0, std::floor(v / max_value * 8.0)));
    out += kRamp[level];
  }
  return out;
}

std::vector<double> column(const JsonValue& windows, const std::string& name) {
  std::vector<double> out;
  out.reserve(windows.items.size());
  for (const JsonPtr& w : windows.items) out.push_back(w->num(name));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> metrics;
  bool table = false;
  std::uint64_t width = 72;
  ldcf::common::OptionTable cli("series_view",
                                "Render windowed telemetry in the terminal.");
  cli.positional("FILE", &path, {"", "ldcf.timeseries.v1 JSON file"}, true)
      .add("--metric",
           [&](std::string_view name) { metrics.emplace_back(name); },
           {"NAME", "sparkline only this window field (repeatable)"})
      .add("--table", &table, {"", "print every window as a row"})
      .add("--width", &width,
           ldcf::common::Knob("N", "max sparkline columns").at_least(1));
  cli.parse_or_exit(argc, argv);
  if (metrics.empty()) {
    metrics = {"covered", "new_holders", "tx_attempts", "collisions",
               "energy"};
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "series_view: cannot open " << path << "\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  try {
    const JsonPtr doc = parse_json(buffer.str());
    // Accept the standalone artifact ("series" member), a run/sweep report
    // point ("timeseries" member), or the bare series body itself.
    const JsonValue* series = doc->find("series");
    if (series == nullptr) series = doc->find("timeseries");
    if (series == nullptr && doc->find("windows") != nullptr) {
      series = doc.get();
    }
    if (series == nullptr) {
      std::cerr << "series_view: " << path
                << " has no series/timeseries section\n";
      return 2;
    }
    const JsonValue* windows = series->find("windows");
    if (windows == nullptr || windows->kind != JsonValue::Kind::kArray) {
      std::cerr << "series_view: series has no windows array\n";
      return 2;
    }

    const std::string protocol = doc->str("protocol");
    std::cout << "series";
    if (!protocol.empty()) std::cout << " for " << protocol;
    std::cout << ": " << windows->items.size() << " windows of "
              << static_cast<std::uint64_t>(series->num("window_slots"))
              << " slots, " << static_cast<std::uint64_t>(series->num("trials"))
              << " trial(s), end slot "
              << static_cast<std::uint64_t>(series->num("end_slot")) << "\n";

    if (table) {
      std::cout << "start";
      for (const std::string& m : metrics) std::cout << '\t' << m;
      std::cout << "\n";
      for (const JsonPtr& w : windows->items) {
        std::cout << static_cast<std::uint64_t>(w->num("start"));
        for (const std::string& m : metrics) std::cout << '\t' << w->num(m);
        std::cout << "\n";
      }
    } else {
      std::size_t label_width = 0;
      for (const std::string& m : metrics) {
        label_width = std::max(label_width, m.size());
      }
      for (const std::string& m : metrics) {
        const std::vector<double> values = column(*windows, m);
        double total = 0.0;
        double peak = 0.0;
        for (const double v : values) {
          total += v;
          peak = std::max(peak, v);
        }
        std::cout << "  " << m << std::string(label_width - m.size(), ' ')
                  << "  " << sparkline(values, width) << "  total " << total
                  << ", peak " << peak << "\n";
      }
    }

    const JsonValue* anomalies = series->find("anomalies");
    if (anomalies != nullptr && !anomalies->items.empty()) {
      std::cout << "anomalies (" << anomalies->items.size() << "):\n";
      for (const JsonPtr& a : anomalies->items) {
        std::cout << "  [" << a->str("rule") << "] " << a->str("message")
                  << "\n";
      }
    } else {
      std::cout << "no anomalies\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "series_view: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
