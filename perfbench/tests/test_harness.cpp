// Self-tests for the benchmark harness: order statistics, the tail
// percentile rule, metric names, the metric table and the result line.
// Exit status is the number of failed expectations.
#include <cmath>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median() {
  using perfbench::median;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0}) == 3.0, "median of one sample");
  expect(median({5.0, 1.0, 3.0}) == 3.0, "median of an odd count");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of an even count");
}

void test_quartiles() {
  using perfbench::quartiles;
  // Values from Python: statistics.quantiles(data, n=4).
  const perfbench::Quartiles ten =
      quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect(near(ten.q1, 2.75) && near(ten.q2, 5.5) && near(ten.q3, 8.25),
         "quartiles of 1..10 are 2.75, 5.5, 8.25");
  const perfbench::Quartiles five = quartiles({5, 1, 4, 2, 3});
  expect(near(five.q1, 1.5) && near(five.q2, 3.0) && near(five.q3, 4.5),
         "quartiles of 1..5 (unsorted) are 1.5, 3, 4.5");
  const perfbench::Quartiles two = quartiles({1, 2});
  expect(near(two.q1, 0.75) && near(two.q2, 1.5) && near(two.q3, 2.25),
         "quartiles of two samples extrapolate like Python's");
  const perfbench::Quartiles one = quartiles({7});
  expect(one.q1 == 7 && one.q2 == 7 && one.q3 == 7, "one sample");
  expect(near(perfbench::iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
              (8.25 - 2.75) / 5.5),
         "iqr_share is (q3 - q1) / median");
  expect(perfbench::iqr_share({0, 0, 0}) == 0.0, "iqr_share of zeros is 0");
}

void test_reportable_tail() {
  using perfbench::reportable_tail;
  expect(!reportable_tail(0).has_value(), "no samples: no tail");
  expect(!reportable_tail(99).has_value(), "99 samples: p90 has 9.9 beyond");
  expect(reportable_tail(100) == 90.0, "100 samples: p90");
  expect(reportable_tail(999) == 90.0, "999 samples: still p90");
  expect(reportable_tail(1000) == 99.0, "1000 samples: p99");
  expect(reportable_tail(10000) == 99.9, "10000 samples: p99.9");
}

void test_percentile() {
  using perfbench::percentile;
  expect(percentile({}, 90) == 0.0, "percentile of nothing is 0");
  expect(near(percentile({10, 20, 30, 40, 50}, 50), 30), "p50");
  expect(near(percentile({10, 20, 30, 40, 50}, 90), 46), "p90 interpolates");
  expect(near(percentile({10, 20, 30, 40, 50}, 100), 50), "p100 is the max");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("sim.channel_draw_s"), "dots and underscores");
  expect(valid_metric_name("1-a.B_c"), "may start with a digit");
  expect(!valid_metric_name(""), "empty");
  expect(!valid_metric_name(".leading"), "leading dot");
  expect(!valid_metric_name("has space"), "space");
  expect(!valid_metric_name("slash/s"), "slash");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");

  std::set<std::string_view> seen;
  bool has_setup = false;
  for (const perfbench::MetricDecl& decl : perfbench::metric_table()) {
    expect(valid_metric_name(decl.name),
           "declared name is valid: " + std::string(decl.name));
    expect(seen.insert(decl.name).second,
           "declared once: " + std::string(decl.name));
    expect(!decl.unit.empty() && decl.unit.size() <= 16,
           "unit present: " + std::string(decl.name));
    has_setup = has_setup || (decl.name == "setup_s" && decl.unit == "s" &&
                              decl.kind == perfbench::MetricKind::kEndToEnd);
  }
  expect(has_setup, "setup_s is an end-to-end metric in seconds");
}

void test_result_line() {
  // The failed check below is expected; keep its message off the output.
  std::streambuf* const cerr = std::cerr.rdbuf(nullptr);
  perfbench::Report report;
  report.set("setup_s", 0.5);
  report.set("peak_rss_mb", 10.0);
  report.set("op_p50_ms", 2.0);
  report.check(true, "an op");
  std::ostringstream out;
  report.write_result(out, perfbench::MetricKind::kEndToEnd);
  std::cerr.rdbuf(cerr);
  const std::string line = out.str();
  expect(line.find("\"correct\": false") != std::string::npos,
         "a missing end-to-end metric (ops_per_s) marks the result incorrect");
  expect(line.find("\"ops_per_s\": {\"value\": 0") != std::string::npos,
         "the missing metric is still written");

  perfbench::Report complete;
  for (const perfbench::MetricDecl& decl : perfbench::metric_table()) {
    if (decl.kind == perfbench::MetricKind::kEndToEnd) complete.set(decl.name, 1.25);
  }
  complete.check(true, "an op");
  std::ostringstream ok;
  complete.write_result(ok, perfbench::MetricKind::kEndToEnd);
  expect(ok.str().rfind("{\"correct\": true, \"attempted\": 1, \"failed\": 0",
                        0) == 0,
         "a complete report is correct");
  expect(ok.str().find("\"unit\": \"s\"") != std::string::npos,
         "units are written");

  bool threw = false;
  try {
    complete.set("no.such.metric", 1.0);
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "setting an undeclared metric throws");
}

void test_tracer() {
  perfbench::Tracer tracer(true);
  {
    perfbench::Tracer::Scope outer(tracer, "outer", 1);
    perfbench::Tracer::Scope inner(tracer, "inner", 1);
  }
  tracer.set_enabled(false);
  { perfbench::Tracer::Scope ignored(tracer, "outer"); }
  expect(tracer.spans().size() == 2, "a disabled tracer records nothing");
  expect(tracer.spans()[1].parent == 0, "inner span's parent is outer");
  expect(tracer.durations("outer").size() == 1, "durations by name");
  expect(tracer.total("outer") >= tracer.total("inner"),
         "an enclosing span lasts at least as long as its child");
}

}  // namespace

int main() {
  test_median();
  test_quartiles();
  test_reportable_tail();
  test_percentile();
  test_metric_names();
  test_result_line();
  test_tracer();
  if (failures == 0) std::cout << "perfbench self-tests passed\n";
  return failures;
}
