#include "ldcf/theory/fdl.hpp"

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"
#include "ldcf/theory/fwl.hpp"

namespace ldcf::theory {
namespace {

TEST(FdlCompact, Lemma3ClosedForm) {
  // FDL = M + ceil(log2(N+1)) - 1 compact slots.
  EXPECT_EQ(fdl_compact_full_duplex(4, 1), 3u);   // Fig. 3: one packet, c = 3.
  EXPECT_EQ(fdl_compact_full_duplex(4, 2), 4u);   // Fig. 3: two packets.
  EXPECT_EQ(fdl_compact_full_duplex(1024, 10), 10u + 11u - 1u);
}

TEST(Table1, SmallMBranchMatchesPaper) {
  // Paper Table I (M < m): W_p = m + p.
  const std::uint64_t n = 1024;  // m = 11.
  const std::uint64_t m = m_of(n);
  const std::uint64_t big_m = 5;  // < m
  const auto w = table1_waitings(n, big_m);
  ASSERT_EQ(w.size(), big_m);
  for (std::uint64_t p = 0; p < big_m; ++p) {
    EXPECT_EQ(w[p], m + p) << "p=" << p;
  }
}

TEST(Table1, LargeMBranchSaturates) {
  // Paper Table I (M >= m): W_p saturates at m + (m-1) from p = m-1 on.
  const std::uint64_t n = 1024;
  const std::uint64_t m = m_of(n);
  const std::uint64_t big_m = 30;  // >= m
  const auto w = table1_waitings(n, big_m);
  for (std::uint64_t p = 0; p + 1 < m; ++p) {
    EXPECT_EQ(w[p], m + p) << "p=" << p;
  }
  for (std::uint64_t p = m - 1; p < big_m; ++p) {
    EXPECT_EQ(w[p], m + (m - 1)) << "p=" << p;
  }
}

TEST(Table1, RejectsOutOfRangeIndex) {
  EXPECT_THROW((void)table1_waiting(16, 3, 3), InvalidArgument);
}

TEST(ExpectedFdl, Theorem1BothBranches) {
  const std::uint64_t n = 1024;  // m = 11.
  const DutyCycle duty{5};
  // M < m branch: T(m/2 + M - 1).
  EXPECT_DOUBLE_EQ(expected_fdl(n, 5, duty), 5.0 * (5.5 + 5.0 - 1.0));
  // M >= m branch: T(m + M/2 - 1).
  EXPECT_DOUBLE_EQ(expected_fdl(n, 20, duty), 5.0 * (11.0 + 10.0 - 1.0));
}

TEST(ExpectedFdl, ContinuousAtKnee) {
  for (std::uint64_t n : {255ULL, 1024ULL, 4096ULL}) {
    const std::uint64_t m = m_of(n);
    const DutyCycle duty{10};
    const double below = expected_fdl(n, m - 1, duty);
    const double at = expected_fdl(n, m, duty);
    // Crossing the knee adds T/2 .. T per extra packet; no discontinuity
    // larger than one period.
    EXPECT_GT(at, below);
    EXPECT_LE(at - below, static_cast<double>(duty.period) + 1e-9);
  }
}

TEST(ExpectedFdl, SlopeHalvesAfterKnee) {
  // Fig. 5's message: below the knee each extra packet costs T slots, above
  // it only T/2 (pipelining).
  const std::uint64_t n = 1024;
  const std::uint64_t m = m_of(n);
  const DutyCycle duty{10};
  const double slope_below =
      expected_fdl(n, m - 2, duty) - expected_fdl(n, m - 3, duty);
  const double slope_above =
      expected_fdl(n, m + 10, duty) - expected_fdl(n, m + 9, duty);
  EXPECT_DOUBLE_EQ(slope_below, 10.0);
  EXPECT_DOUBLE_EQ(slope_above, 5.0);
}

TEST(ExpectedFdl, ScalesLinearlyWithPeriod) {
  // Corollary 1: T is a multiplicative factor.
  const std::uint64_t n = 298;
  for (std::uint64_t big_m : {3ULL, 10ULL, 50ULL}) {
    const double at_t5 = expected_fdl(n, big_m, DutyCycle{5});
    const double at_t10 = expected_fdl(n, big_m, DutyCycle{10});
    const double at_t50 = expected_fdl(n, big_m, DutyCycle{50});
    EXPECT_DOUBLE_EQ(at_t10, 2.0 * at_t5);
    EXPECT_DOUBLE_EQ(at_t50, 10.0 * at_t5);
  }
}

TEST(MaxFdl, TwiceTheExpectation) {
  // Proof of Theorem 1: FDL <= T*FWL and E[FDL] = T*FWL/2.
  for (std::uint64_t big_m : {1ULL, 5ULL, 40ULL}) {
    const std::uint64_t n = 256;
    const DutyCycle duty{20};
    EXPECT_DOUBLE_EQ(max_fdl(n, big_m, duty),
                     2.0 * expected_fdl(n, big_m, duty));
  }
}

TEST(FdlBoundsTest, Theorem2OrdersAndContainsTheorem1) {
  for (std::uint64_t n : {100ULL, 298ULL, 1000ULL, 5000ULL}) {
    for (std::uint64_t big_m = 1; big_m <= 40; ++big_m) {
      const DutyCycle duty{20};
      const auto b = expected_fdl_bounds(n, big_m, duty);
      EXPECT_LE(b.lower, b.upper) << "n=" << n << " M=" << big_m;
      // The Theorem 1 value (exact for N = 2^n) equals the lower bound.
      EXPECT_DOUBLE_EQ(b.lower, expected_fdl(n, big_m, duty));
    }
  }
}

TEST(FdlBoundsTest, UpperBoundGapIsBoundedByMPlusHalfM) {
  // Gap above the knee is exactly T*m; below it T*(m/2 + M/2 - 1/2).
  const std::uint64_t n = 1024;
  const std::uint64_t m = m_of(n);
  const DutyCycle duty{4};
  const auto above = expected_fdl_bounds(n, m + 5, duty);
  EXPECT_DOUBLE_EQ(above.upper - above.lower,
                   static_cast<double>(duty.period) * static_cast<double>(m));
}

TEST(BlockingWindowTest, Corollary1) {
  EXPECT_EQ(blocking_window(1024), 10u);  // m - 1 = 11 - 1.
  EXPECT_EQ(blocking_window(4), 2u);
  EXPECT_EQ(knee_point(1024), 11u);
  EXPECT_EQ(knee_point(298), 9u);
}

// gtest names each case by printing the param's raw bytes, so the struct
// must have no padding: uninitialised padding bytes made the test names
// change from run to run.
struct Fig5Case {
  std::uint64_t n;
  std::uint64_t period;
};
static_assert(sizeof(Fig5Case) == 2 * sizeof(std::uint64_t));

class Fig5Sweep : public ::testing::TestWithParam<Fig5Case> {};

TEST_P(Fig5Sweep, DelayIsNondecreasingInM) {
  const auto [n, period] = GetParam();
  double prev = 0.0;
  for (std::uint64_t big_m = 1; big_m <= 20; ++big_m) {
    const double fdl = expected_fdl(n, big_m, DutyCycle{static_cast<std::uint32_t>(period)});
    EXPECT_GE(fdl, prev);
    prev = fdl;
  }
}

TEST_P(Fig5Sweep, LargerNetworksAreSlower) {
  const auto [n, period] = GetParam();
  for (std::uint64_t big_m = 1; big_m <= 20; ++big_m) {
    EXPECT_LE(expected_fdl(n, big_m, DutyCycle{static_cast<std::uint32_t>(period)}),
              expected_fdl(4 * n, big_m, DutyCycle{static_cast<std::uint32_t>(period)}));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, Fig5Sweep,
    ::testing::Values(Fig5Case{256, 5}, Fig5Case{1024, 5}, Fig5Case{4096, 5},
                      Fig5Case{1024, 10}, Fig5Case{1024, 1}));

}  // namespace
}  // namespace ldcf::theory
