// Interactive view of the paper's analytical results: for a given network
// size, packet count, duty period and link quality, print every quantity
// §IV derives — m, the FWL, Theorem 1 / Theorem 2 delay limits, the
// link-loss growth rate and the predicted flooding delay.
//
//   ./theory_explorer [N] [M] [T] [link_quality]
#include <iostream>

#include "ldcf/common/math_utils.hpp"
#include "ldcf/common/options.hpp"
#include "ldcf/theory/compact_flooding.hpp"
#include "ldcf/theory/fdl.hpp"
#include "ldcf/theory/fwl.hpp"
#include "ldcf/theory/link_loss.hpp"

int main(int argc, char** argv) {
  using namespace ldcf;
  using namespace ldcf::theory;

  std::uint64_t n = 298;
  std::uint64_t m_pkts = 100;
  std::uint32_t t = 20;
  double quality = 0.7;
  common::OptionTable("theory_explorer", "Print every section IV quantity.")
      .positional("N", &n, {"", "sensors"}, false)
      .positional("M", &m_pkts, {"", "packets"}, false)
      .positional("T", &t, {"", "duty period in slots"}, false)
      .positional("link_quality", &quality, {"", "link PRR"}, false)
      .parse_or_exit(argc, argv);
  const DutyCycle duty{t};

  std::cout << "Network: N = " << n << " sensors + 1 source, M = " << m_pkts
            << " packets, T = " << t << " (duty "
            << 100.0 * duty.ratio() << "%), link quality = " << quality
            << "\n\n";

  std::cout << "-- Structure (Lemma 2 / Corollary 1) --\n";
  std::cout << "m = ceil(log2(1+N))          : " << m_of(n) << "\n";
  std::cout << "single-packet FWL (mu = 2)   : " << expected_fwl(n, 2.0)
            << " compact slots\n";
  std::cout << "single-packet FWL (mu = 1+q) : "
            << expected_fwl(n, 1.0 + quality) << " compact slots\n";
  std::cout << "blocking window (Corollary 1): " << blocking_window(n)
            << " packets\n";
  std::cout << "knee point (Fig. 5)          : M = " << knee_point(n) << "\n\n";

  std::cout << "-- Multi-packet limits --\n";
  std::cout << "Lemma 3 compact FDL          : "
            << fdl_compact_full_duplex(n, m_pkts) << " compact slots\n";
  std::cout << "Theorem 1 E[FDL]             : "
            << expected_fdl(n, m_pkts, duty) << " slots\n";
  const auto bounds = expected_fdl_bounds(n, m_pkts, duty);
  std::cout << "Theorem 2 bounds             : [" << bounds.lower << ", "
            << bounds.upper << "] slots\n";
  std::cout << "max FDL (<= 2x expectation)  : " << max_fdl(n, m_pkts, duty)
            << " slots\n\n";

  std::cout << "-- Link loss (Section IV-B) --\n";
  const double k = k_class_of_quality(quality);
  const double lambda = growth_rate(k, t);
  std::cout << "k-class                      : k = " << k << "\n";
  std::cout << "growth rate lambda           : " << lambda
            << "  (root of x^(kT+1) = x^(kT) + 1)\n";
  std::cout << "predicted single-packet delay: "
            << predicted_flooding_delay(n, k, duty) << " slots\n";
  std::cout << "  same at 99% coverage       : "
            << predicted_coverage_delay(n, 0.99, k, duty) << " slots\n";
  std::cout << "  with perfect links (k = 1) : "
            << predicted_flooding_delay(n, 1.0, duty) << " slots\n\n";

  if (is_power_of_two(n)) {
    std::cout << "-- Algorithm 1 (exact run, N = 2^n) --\n";
    const auto run = run_compact_flooding(
        CompactRunConfig{n, std::min<std::uint64_t>(m_pkts, 64), false});
    std::cout << "compact slots used           : " << run.total_slots
              << " (Lemma 3 predicts "
              << fdl_compact_full_duplex(n, std::min<std::uint64_t>(m_pkts, 64))
              << ")\n";
  } else {
    std::cout << "(N is not a power of two: Algorithm 1's exact run needs "
                 "assumption II; Theorem 2 bounds above still apply.)\n";
  }
  return 0;
}
