#include "ldcf/topology/radio_propagation.hpp"

#include <gtest/gtest.h>

#include "ldcf/common/error.hpp"

namespace ldcf::topology {
namespace {

TEST(RadioModel, RssiDecaysWithDistance) {
  const RadioModel radio{};
  double prev = radio.mean_rssi_dbm(1.0);
  for (double d : {5.0, 10.0, 50.0, 100.0, 200.0}) {
    const double rssi = radio.mean_rssi_dbm(d);
    EXPECT_LT(rssi, prev) << "d=" << d;
    prev = rssi;
  }
}

TEST(RadioModel, RssiFollowsLogDistanceLaw) {
  const RadioModel radio{};
  // Every 10x distance costs 10*n dB.
  const double at_10 = radio.mean_rssi_dbm(10.0);
  const double at_100 = radio.mean_rssi_dbm(100.0);
  EXPECT_NEAR(at_10 - at_100, 10.0 * radio.path_loss_exponent, 1e-9);
}

TEST(RadioModel, SubMeterClampsToReference) {
  const RadioModel radio{};
  EXPECT_DOUBLE_EQ(radio.mean_rssi_dbm(0.1), radio.mean_rssi_dbm(1.0));
  EXPECT_THROW((void)radio.mean_rssi_dbm(-1.0), InvalidArgument);
}

TEST(RadioModel, PrrLogisticShape) {
  const RadioModel radio{};
  // At the sensitivity threshold PRR is exactly 1/2.
  EXPECT_NEAR(radio.prr_of_rssi(radio.sensitivity_dbm), 0.5, 1e-12);
  // Well above: ~1; well below: ~0.
  EXPECT_GT(radio.prr_of_rssi(radio.sensitivity_dbm + 20.0), 0.99);
  EXPECT_LT(radio.prr_of_rssi(radio.sensitivity_dbm - 20.0), 0.01);
  // Monotone.
  EXPECT_LT(radio.prr_of_rssi(-95.0), radio.prr_of_rssi(-85.0));
}

TEST(RadioModel, RangeAtPrrInvertsTheModel) {
  const RadioModel radio{};
  for (double prr : {0.9, 0.5, 0.1}) {
    const double range = radio.range_at_prr(prr);
    ASSERT_GT(range, 1.0);
    EXPECT_NEAR(radio.prr_of_rssi(radio.mean_rssi_dbm(range)), prr, 1e-6)
        << "prr=" << prr;
  }
  // Better quality demands shorter range.
  EXPECT_LT(radio.range_at_prr(0.9), radio.range_at_prr(0.1));
  EXPECT_THROW((void)radio.range_at_prr(0.0), InvalidArgument);
  EXPECT_THROW((void)radio.range_at_prr(1.0), InvalidArgument);
}

TEST(RadioModel, ShadowingIsZeroMean) {
  const RadioModel radio{};
  Rng rng(5);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    sum += radio.sample_rssi_dbm(50.0, rng) - radio.mean_rssi_dbm(50.0);
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.1);
}

TEST(RadioModel, SamplePrrSpreadCoversQualityMix) {
  // Near the PRR knee, shadowing must produce both good and bad links —
  // the heterogeneity the paper's trace exhibits.
  const RadioModel radio{};
  const double knee_dist = radio.range_at_prr(0.5);
  Rng rng(11);
  int good = 0;
  int bad = 0;
  for (int i = 0; i < 2000; ++i) {
    const double prr =
        radio.prr_of_rssi(radio.sample_rssi_dbm(knee_dist, rng));
    if (prr > 0.9) ++good;
    if (prr < 0.1) ++bad;
  }
  EXPECT_GT(good, 100);
  EXPECT_GT(bad, 100);
}

}  // namespace
}  // namespace ldcf::topology
