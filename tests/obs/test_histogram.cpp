#include "ldcf/obs/histogram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "ldcf/common/error.hpp"

namespace ldcf::obs {
namespace {

constexpr std::size_t kBins = Histogram::kNumBins;

TEST(Histogram, EmptyHistogramIsAllZeros) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  for (std::size_t i = 0; i < h.num_bins(); ++i) {
    EXPECT_EQ(h.bin_count(i), 0u);
  }
}

TEST(Histogram, RejectsBadSamples) {
  Histogram h;
  EXPECT_EQ(h.num_bins(), kBins);
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);
  EXPECT_THROW(h.record(-1.0), InvalidArgument);
  EXPECT_THROW(h.record(std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_THROW(h.record(std::numeric_limits<double>::quiet_NaN()),
               InvalidArgument);
  // Zero weight is a no-op, not an error.
  h.record(3.0, 0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(Histogram, RecordsIntoUnitBins) {
  Histogram h;
  h.record(0.0);
  h.record(0.5);
  h.record(3.0, 4);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(3), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.mean(), 12.5 / 6.0);
  EXPECT_DOUBLE_EQ(h.bin_lower(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(3), 4.0);
}

// Auto-range growth: overflow doubles the width by pairwise bin merging,
// so not a single count may be lost or moved across a (coarse) bin edge.
TEST(Histogram, AutoRangeGrowthPreservesCounts) {
  Histogram h;
  for (std::size_t v = 0; v < kBins; ++v) h.record(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(h.bin_width(), 1.0);

  h.record(127.0);  // overflows [0, 64): width doubles to 2.
  EXPECT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_EQ(h.count(), 65u);
  for (std::size_t i = 0; i < kBins / 2; ++i) {
    EXPECT_EQ(h.bin_count(i), 2u) << i;  // old bins 2i + (2i + 1).
  }
  EXPECT_EQ(h.bin_count(kBins / 2), 0u);
  EXPECT_EQ(h.bin_count(kBins - 1), 1u);  // the new sample, [126, 128).

  h.record(4000.0);  // forces several more doublings: 4000/width < 64.
  EXPECT_DOUBLE_EQ(h.bin_width(), 64.0);
  EXPECT_EQ(h.count(), 66u);
  EXPECT_EQ(h.bin_count(0), 64u);   // everything below 64.
  EXPECT_EQ(h.bin_count(1), 1u);    // 127 in [64, 128).
  EXPECT_EQ(h.bin_count(62), 1u);   // 4000 in [3968, 4032).
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < h.num_bins(); ++i) total += h.bin_count(i);
  EXPECT_EQ(total, h.count());
  EXPECT_DOUBLE_EQ(h.max(), 4000.0);
}

TEST(Histogram, MergeWithEmptyIsIdentityBothWays) {
  Histogram a;
  a.record(3.0, 5);
  const Histogram empty;

  Histogram a_copy = a;
  a_copy.merge(empty);  // no-op.
  EXPECT_EQ(a_copy.count(), 5u);
  EXPECT_EQ(a_copy.bin_count(3), 5u);
  EXPECT_DOUBLE_EQ(a_copy.bin_width(), 1.0);

  Histogram adopt;
  adopt.merge(a);  // empty adopts the populated side exactly.
  EXPECT_EQ(adopt.count(), 5u);
  EXPECT_EQ(adopt.bin_count(3), 5u);
  EXPECT_DOUBLE_EQ(adopt.min(), 3.0);
  EXPECT_DOUBLE_EQ(adopt.max(), 3.0);

  Histogram both;
  both.merge(empty);  // empty into empty stays empty.
  EXPECT_EQ(both.count(), 0u);
}

TEST(Histogram, MergeAlignsToTheCoarserWidth) {
  Histogram fine;
  fine.record(1.0);  // width stays 1.
  Histogram coarse;
  coarse.record(127.0);  // width 2 after one doubling.
  ASSERT_DOUBLE_EQ(coarse.bin_width(), 2.0);

  // Coarse into fine: the fine side must coarsen itself first.
  Histogram fine_copy = fine;
  fine_copy.merge(coarse);
  EXPECT_DOUBLE_EQ(fine_copy.bin_width(), 2.0);
  EXPECT_EQ(fine_copy.bin_count(0), 1u);
  EXPECT_EQ(fine_copy.bin_count(63), 1u);

  // Fine into coarse: the fine counts fold pairwise on the way in.
  coarse.merge(fine);
  EXPECT_DOUBLE_EQ(coarse.bin_width(), 2.0);
  EXPECT_EQ(coarse.bin_count(0), 1u);
  EXPECT_EQ(coarse.bin_count(63), 1u);

  // Both orders produced the same bins.
  for (std::size_t i = 0; i < kBins; ++i) {
    EXPECT_EQ(fine_copy.bin_count(i), coarse.bin_count(i));
  }
}

// The registry contract: bin counts must not depend on the order trials
// are folded in, even when the trials coarsened to different widths.
TEST(Histogram, MergeIsOrderIndependentOnIntegerData) {
  const std::vector<std::vector<double>> trials = {
      {0, 1, 2, 3},           // width 1.
      {160, 170, 180},        // width 4.
      {1600},                 // width 32.
      {80, 80, 80, 90},       // width 2.
  };
  const auto build = [&](const std::vector<double>& samples) {
    Histogram h;
    for (const double v : samples) h.record(v);
    return h;
  };
  const auto fold = [&](const std::vector<std::size_t>& order) {
    Histogram acc;
    for (const std::size_t t : order) acc.merge(build(trials[t]));
    return acc;
  };
  const Histogram forward = fold({0, 1, 2, 3});
  const Histogram backward = fold({3, 2, 1, 0});
  const Histogram shuffled = fold({2, 0, 3, 1});
  ASSERT_EQ(forward.count(), 12u);
  EXPECT_DOUBLE_EQ(forward.bin_width(), backward.bin_width());
  EXPECT_DOUBLE_EQ(forward.bin_width(), shuffled.bin_width());
  for (std::size_t i = 0; i < forward.num_bins(); ++i) {
    EXPECT_EQ(forward.bin_count(i), backward.bin_count(i)) << "bin " << i;
    EXPECT_EQ(forward.bin_count(i), shuffled.bin_count(i)) << "bin " << i;
  }
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_DOUBLE_EQ(forward.sum(), backward.sum());
  EXPECT_DOUBLE_EQ(forward.min(), shuffled.min());
  EXPECT_DOUBLE_EQ(forward.max(), shuffled.max());
}

TEST(Histogram, QuantileIsNearestRankOnUnitBins) {
  Histogram h;
  for (int v = 1; v <= 60; ++v) h.record(v);
  ASSERT_DOUBLE_EQ(h.bin_width(), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 30.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 57.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 60.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);   // clamped to rank 1.
  EXPECT_DOUBLE_EQ(h.quantile(-3.0), 1.0);  // out-of-range clamps.
  EXPECT_DOUBLE_EQ(h.quantile(7.0), 60.0);
}

TEST(Histogram, InterpolatedQuantileLandsInsideTheBin) {
  // 10 samples in one [5, 6) bin: rank q*10 interpolates linearly.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.record(5.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.5), 5.5);
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.9), 5.9);
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.1), 5.1);
  EXPECT_DOUBLE_EQ(h.quantile_interp(1.0), 6.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.0), 5.0);
}

TEST(Histogram, InterpolatedQuantileConvergesOnUniformSamples) {
  // Samples 0..63 on unit bins: the estimator tracks the exact quantile.
  Histogram h;
  for (int v = 0; v < 64; ++v) h.record(v);
  ASSERT_DOUBLE_EQ(h.bin_width(), 1.0);
  EXPECT_NEAR(h.quantile_interp(0.50), 32.0, 1.0);
  EXPECT_NEAR(h.quantile_interp(0.90), 57.6, 1.0);
  EXPECT_NEAR(h.quantile_interp(0.99), 63.4, 1.0);
  // The interpolated value sits inside the nearest-rank quantile's bin.
  for (const double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double coarse = h.quantile(q);
    const double interp = h.quantile_interp(q);
    EXPECT_GE(interp, coarse) << q;
    EXPECT_LE(interp, coarse + h.bin_width()) << q;
  }
}

TEST(Histogram, InterpolatedQuantileSkipsEmptyBins) {
  Histogram h;
  for (int i = 0; i < 4; ++i) h.record(2.5);   // bin [2, 3).
  for (int i = 0; i < 4; ++i) h.record(40.5);  // bin [40, 41).
  // Median rank 4 completes inside the first occupied bin.
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.5), 3.0);
  // p99 rank 7.92 sits 3.92/4 into the second occupied bin.
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.99), 40.0 + (7.92 - 4.0) / 4.0);
}

TEST(Histogram, InterpolatedQuantileOfEmptyHistogramIsZero) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.5), 0.0);
}

TEST(Histogram, InterpolatedQuantilePinnedAndMonotoneAfterCoarsening) {
  // 0..127 into 64 unit bins auto-coarsens to width 2, two samples per
  // bin. Interpolation must keep working on the coarsened grid with the
  // same rank arithmetic as on the original one.
  Histogram h;
  for (int v = 0; v < 128; ++v) h.record(v);
  ASSERT_DOUBLE_EQ(h.bin_width(), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile_interp(2.0 / 128), 2.0);  // top of bin 0.
  EXPECT_DOUBLE_EQ(h.quantile_interp(3.0 / 128), 3.0);  // mid bin 1.
  EXPECT_DOUBLE_EQ(h.quantile_interp(0.5), 64.0);       // top of bin 31.
  EXPECT_DOUBLE_EQ(h.quantile_interp(1.0), 128.0);
  // The estimator is monotone in q — the property that makes it usable as
  // a percentile curve — on this grid and within every coarse bin.
  double prev = h.quantile_interp(0.0);
  for (int step = 1; step <= 40; ++step) {
    const double q = static_cast<double>(step) / 40.0;
    const double value = h.quantile_interp(q);
    EXPECT_GE(value, prev) << "q=" << q;
    prev = value;
  }
}

}  // namespace
}  // namespace ldcf::obs
