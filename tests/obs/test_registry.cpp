#include "ldcf/obs/registry.hpp"

#include <gtest/gtest.h>

namespace ldcf::obs {
namespace {

TEST(MetricsRegistry, FindOrCreateReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& c = registry.counter("tx.attempts");
  c.inc();
  // Creating unrelated metrics must not invalidate the reference
  // (node-based storage is what makes the hot path allocation-free).
  for (int i = 0; i < 100; ++i) {
    (void)registry.counter("filler." + std::to_string(i));
  }
  Counter& again = registry.counter("tx.attempts");
  EXPECT_EQ(&c, &again);
  c.inc(2);
  EXPECT_EQ(again.value(), 3u);
}

TEST(MetricsRegistry, HistogramsRegister) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("delay");
  h.record(3.0);
  EXPECT_EQ(&registry.histogram("delay"), &h);
  EXPECT_EQ(registry.histogram("delay").count(), 1u);
  EXPECT_EQ(registry.histograms().size(), 1u);
}

TEST(MetricsRegistry, MergeAddsCountersAndMergesHistograms) {
  MetricsRegistry a;
  a.counter("shared").inc(3);
  a.counter("only_a").inc(1);
  a.histogram("delay").record(1.0);

  MetricsRegistry b;
  b.counter("shared").inc(4);
  b.counter("only_b").inc(7);
  b.histogram("delay").record(2.0);
  b.histogram("only_b_hist").record(9.0);

  a.merge(b);
  EXPECT_EQ(a.counter("shared").value(), 7u);
  EXPECT_EQ(a.counter("only_a").value(), 1u);
  EXPECT_EQ(a.counter("only_b").value(), 7u);  // created by the merge.
  EXPECT_EQ(a.histogram("delay").count(), 2u);
  EXPECT_EQ(a.histogram("only_b_hist").count(), 1u);
}

TEST(MetricsRegistry, MergeIntoEmptyCopiesEverything) {
  MetricsRegistry src;
  src.counter("n").inc(5);
  src.histogram("h").record(600.0);  // coarsened to width 16.

  MetricsRegistry dst;
  dst.merge(src);
  EXPECT_EQ(dst.counter("n").value(), 5u);
  // The histogram arrives with the source's bins and width.
  const Histogram& h = dst.histogram("h");
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.bin_width(), 16.0);
  EXPECT_EQ(h.bin_count(37), 1u);
}

TEST(MetricsRegistry, IterationIsNameOrdered) {
  MetricsRegistry registry;
  registry.counter("zebra").inc();
  registry.counter("apple").inc();
  registry.counter("mango").inc();
  std::vector<std::string> names;
  for (const auto& [name, counter] : registry.counters()) {
    names.push_back(name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"apple", "mango", "zebra"}));
}

}  // namespace
}  // namespace ldcf::obs
