// Radio propagation and link-quality model.
//
// The GreenOrbs trace the paper uses derives link qualities from six months
// of RSSI measurements. We reproduce that pipeline synthetically:
//
//   distance --(log-distance path loss + log-normal shadowing)--> RSSI
//        RSSI --(logistic receiver sensitivity curve)--> PRR
//
// The defaults are CC2420-class numbers (the GreenOrbs hardware): 0 dBm TX
// power, path-loss exponent ~3 in forest, shadowing sigma ~4 dB, receiver
// sensitivity knee near -90 dBm. The resulting PRR mix spans near-perfect to
// very lossy links, which is the property the paper's analysis depends on.
#pragma once

#include "ldcf/common/rng.hpp"

namespace ldcf::topology {

/// Parameters of the log-distance shadowing model and the RSSI->PRR curve.
struct RadioModel {
  double tx_power_dbm = 0.0;        ///< transmit power.
  double path_loss_at_1m_db = 40.0; ///< reference loss PL(d0), d0 = 1 m.
  double path_loss_exponent = 3.0;  ///< forest environments: 2.7 .. 3.5.
  double shadowing_sigma_db = 4.0;  ///< log-normal shadowing std-dev.
  double sensitivity_dbm = -90.0;   ///< 50%-PRR receiver threshold.
  double prr_slope_db = 2.0;        ///< logistic width: dB per PRR decade.
  double min_usable_prr = 0.1;      ///< below this a pair is not a link.

  /// Mean received power over a link of length `dist` meters (no shadowing).
  [[nodiscard]] double mean_rssi_dbm(double dist) const;

  /// One shadowing realization: mean RSSI plus a Gaussian dB offset. The
  /// offset models the *persistent* per-link shadowing the six-month trace
  /// averages over, so it is drawn once per link, not per packet.
  [[nodiscard]] double sample_rssi_dbm(double dist, Rng& rng) const;

  /// Packet reception ratio for a given RSSI: logistic in dB around the
  /// sensitivity threshold.
  [[nodiscard]] double prr_of_rssi(double rssi_dbm) const;

  /// Distance at which the *mean* PRR crosses `prr` (ignoring shadowing);
  /// used by generators to size deployments for a target degree.
  [[nodiscard]] double range_at_prr(double prr) const;
};

}  // namespace ldcf::topology
