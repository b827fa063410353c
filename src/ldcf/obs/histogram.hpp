// Auto-ranging histograms with exact merge semantics.
//
// The paper's claims are distributional — Theorem 1 predicts how the
// flooding-delay distribution shifts with m and M, Corollary 1 bounds the
// blocking tail — so scalar means are not enough to validate them. Every
// Histogram has one shape: kNumBins bins that start 1 unit wide (one slot
// for delays). When a sample lands past the last bin, the bin width
// doubles — adjacent bins merge pairwise, every count preserved — until the
// sample fits; bin widths therefore always equal 2^k, which is what makes
// cross-histogram merges exact: two histograms can always be aligned by
// coarsening the finer one, and merged counts are identical no matter the
// merge order.
//
// The hot path is branch + array increment; record() never allocates after
// construction.
#pragma once

#include <cstdint>
#include <vector>

namespace ldcf::obs {

/// Fixed-memory histogram over non-negative samples. Exact aggregates
/// (count/sum/min/max) ride alongside the binned counts, so means stay
/// exact regardless of binning resolution.
class Histogram {
 public:
  /// Bins allocated up front; the initial width of each is 1.
  static constexpr std::size_t kNumBins = 64;

  Histogram() : bins_(kNumBins, 0) {}

  /// Add `weight` samples of `value`. Throws InvalidArgument on a negative
  /// or non-finite value.
  void record(double value, std::uint64_t weight = 1);

  /// Fold `other` into this histogram. Counts land exactly where a
  /// sample-by-sample replay at the coarser of the two widths would put
  /// them, so merging is associative and commutative on the bin counts.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  /// Exact mean of the recorded samples; 0 when empty.
  [[nodiscard]] double mean() const;
  /// Smallest / largest recorded sample; 0 when empty.
  [[nodiscard]] double min() const { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Current (possibly auto-ranged) width of every bin.
  [[nodiscard]] double bin_width() const { return width_; }
  [[nodiscard]] std::size_t num_bins() const { return bins_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t bin) const;
  /// Inclusive lower edge of `bin`: bin * bin_width().
  [[nodiscard]] double bin_lower(std::size_t bin) const;
  /// Exclusive upper edge of `bin`.
  [[nodiscard]] double bin_upper(std::size_t bin) const;

  /// Nearest-rank quantile resolved to the lower edge of the bin holding
  /// rank ceil(q * count); q outside [0, 1] is clamped. 0 when empty.
  /// While the width is still 1, integer samples give the exact quantile.
  [[nodiscard]] double quantile(double q) const;

  /// Bin-interpolated quantile: locate the bin holding rank q * count,
  /// then interpolate linearly inside it by the rank's position between the
  /// bin's cumulative bounds (samples assumed uniform within a bin — the
  /// standard histogram-percentile estimator). Falls inside
  /// [bin_lower, bin_upper) of the quantile() bin, converges to the exact
  /// quantile as bins narrow, and unlike quantile() moves smoothly with q.
  /// q outside [0, 1] is clamped; 0 when empty.
  [[nodiscard]] double quantile_interp(double q) const;

 private:
  /// Double the bin width: merge adjacent bin pairs until `bucket` fits.
  void coarsen_until_fits(std::size_t bucket);

  double width_ = 1.0;  ///< current bin width: 2^k.
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace ldcf::obs
