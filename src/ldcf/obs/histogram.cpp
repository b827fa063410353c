#include "ldcf/obs/histogram.hpp"

#include <cmath>

#include "ldcf/common/error.hpp"

namespace ldcf::obs {

void Histogram::record(double value, std::uint64_t weight) {
  LDCF_REQUIRE(value >= 0.0 && std::isfinite(value),
               "histogram samples must be non-negative and finite");
  if (weight == 0) return;
  auto bucket = static_cast<std::size_t>(value / width_);
  if (bucket >= bins_.size()) {
    coarsen_until_fits(bucket);
    bucket = static_cast<std::size_t>(value / width_);
  }
  bins_[bucket] += weight;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += weight;
  sum_ += value * static_cast<double>(weight);
}

void Histogram::coarsen_until_fits(std::size_t bucket) {
  while (bucket >= bins_.size()) {
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      const std::size_t lo = 2 * i;
      const std::size_t hi = lo + 1;
      bins_[i] = (lo < bins_.size() ? bins_[lo] : 0) +
                 (hi < bins_.size() ? bins_[hi] : 0);
    }
    width_ *= 2.0;
    bucket /= 2;
  }
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  // Align to the coarser width. Both widths are 2^k, so the ratio is an
  // exact power of two and pairwise folding loses nothing.
  if (other.width_ > width_) {
    std::size_t needed = bins_.size();
    double w = width_;
    while (w < other.width_) {
      w *= 2.0;
      needed *= 2;
    }
    coarsen_until_fits(needed - 1);
  }
  const auto ratio = static_cast<std::size_t>(width_ / other.width_ + 0.5);
  for (std::size_t i = 0; i < other.bins_.size(); ++i) {
    if (other.bins_[i] != 0) bins_[i / ratio] += other.bins_[i];
  }
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t Histogram::bin_count(std::size_t bin) const {
  LDCF_REQUIRE(bin < bins_.size(), "histogram bin out of range");
  return bins_[bin];
}

double Histogram::bin_lower(std::size_t bin) const {
  LDCF_REQUIRE(bin < bins_.size(), "histogram bin out of range");
  return static_cast<double>(bin) * width_;
}

double Histogram::bin_upper(std::size_t bin) const {
  LDCF_REQUIRE(bin < bins_.size(), "histogram bin out of range");
  return static_cast<double>(bin + 1) * width_;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double exact = q * static_cast<double>(count_);
  auto rank = static_cast<std::uint64_t>(std::ceil(exact));
  if (rank == 0) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    seen += bins_[i];
    if (seen >= rank) return bin_lower(i);
  }
  return bin_lower(bins_.size() - 1);  // unreachable when counts add up.
}

double Histogram::quantile_interp(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    if (bins_[i] == 0) continue;
    const std::uint64_t below = seen;
    seen += bins_[i];
    if (static_cast<double>(seen) < target) continue;
    // Rank `target` sits inside bin i, a fraction of the way between the
    // cumulative count below it and the cumulative count through it.
    const double frac = (target - static_cast<double>(below)) /
                        static_cast<double>(bins_[i]);
    return bin_lower(i) + frac * width_;
  }
  return bin_upper(bins_.size() - 1);  // unreachable when counts add up.
}

}  // namespace ldcf::obs
