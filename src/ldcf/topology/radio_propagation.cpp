#include "ldcf/topology/radio_propagation.hpp"

#include <algorithm>
#include <cmath>

#include "ldcf/common/error.hpp"

namespace ldcf::topology {

double RadioModel::mean_rssi_dbm(double dist) const {
  LDCF_REQUIRE(dist >= 0.0, "distance must be non-negative");
  const double d = std::max(dist, 1.0);  // model valid beyond d0 = 1 m.
  return tx_power_dbm - path_loss_at_1m_db -
         10.0 * path_loss_exponent * std::log10(d);
}

double RadioModel::sample_rssi_dbm(double dist, Rng& rng) const {
  return mean_rssi_dbm(dist) + shadowing_sigma_db * rng.normal();
}

double RadioModel::prr_of_rssi(double rssi_dbm) const {
  const double z = (rssi_dbm - sensitivity_dbm) / prr_slope_db;
  return 1.0 / (1.0 + std::exp(-z));
}

double RadioModel::range_at_prr(double prr) const {
  LDCF_REQUIRE(prr > 0.0 && prr < 1.0, "prr must be in (0, 1)");
  // Invert the logistic, then the path-loss law.
  const double rssi = sensitivity_dbm + prr_slope_db * std::log(prr / (1.0 - prr));
  const double exponent =
      (tx_power_dbm - path_loss_at_1m_db - rssi) /
      (10.0 * path_loss_exponent);
  return std::pow(10.0, exponent);
}

}  // namespace ldcf::topology
