#include "ldcf/common/math_utils.hpp"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"

namespace ldcf {
namespace {

TEST(CeilLog2, ExactPowers) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1ULL << 40), 40u);
}

TEST(CeilLog2, RoundsUpBetweenPowers) {
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1023), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(CeilLog2, MatchesFloatingPointDefinition) {
  for (std::uint64_t x = 1; x <= 4096; ++x) {
    const auto expected = static_cast<std::uint32_t>(
        std::ceil(std::log2(static_cast<double>(x)) - 1e-12));
    EXPECT_EQ(ceil_log2(x), expected) << "x=" << x;
  }
}

TEST(CeilLog2, RejectsZero) { EXPECT_THROW((void)ceil_log2(0), InvalidArgument); }

TEST(FloorLog2, Basics) {
  EXPECT_EQ(floor_log2(1), 0u);
  EXPECT_EQ(floor_log2(2), 1u);
  EXPECT_EQ(floor_log2(3), 1u);
  EXPECT_EQ(floor_log2(4), 2u);
  EXPECT_EQ(floor_log2(1023), 9u);
  EXPECT_THROW((void)floor_log2(0), InvalidArgument);
}

TEST(IsPowerOfTwo, Basics) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(256));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(255));
}

TEST(Bisect, FindsSquareRoot) {
  const double root = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, FindsRootWithNegativeSlope) {
  const double root = bisect([](double x) { return 1.0 - x; }, 0.0, 5.0);
  EXPECT_NEAR(root, 1.0, 1e-10);
}

TEST(Bisect, ExactEndpointRoot) {
  const double root = bisect([](double x) { return x - 1.0; }, 1.0, 2.0);
  EXPECT_DOUBLE_EQ(root, 1.0);
}

TEST(Bisect, RejectsNonBracketingInterval) {
  EXPECT_THROW((void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
               InvalidArgument);
  EXPECT_THROW((void)bisect([](double) { return 1.0; }, 2.0, 1.0), InvalidArgument);
}

TEST(Fnv1a, MatchesKnownVectors) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a("", 0), 14695981039346656037ull);
  EXPECT_EQ(fnv1a("a", 1), 12638187200555641996ull);
  EXPECT_EQ(fnv1a("foobar", 6), 9625390261332436968ull);
}

TEST(Fnv1a, MixIsOrderSensitive) {
  const std::uint64_t a = fnv1a_mix(fnv1a_mix(fnv1a("k", 1), 1), 2);
  const std::uint64_t b = fnv1a_mix(fnv1a_mix(fnv1a("k", 1), 2), 1);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ldcf
