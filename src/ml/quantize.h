#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"

namespace wefr::ml {

/// Column-major coding of a sample matrix for tree split search, built
/// once per fit and shared read-only by every tree (and every boosting
/// round) of that fit — or once per WEFR population, and shared by every
/// ranker (core::score_rankers). Each value is stored twice, as codes:
///
/// - its **rank**: the index of the value among the feature's sorted
///   distinct values. Rank order is value order, so the exact splitter
///   sorts 32-bit integers read from one contiguous column instead of
///   (double, label) pairs gathered from strided matrix rows, and a node
///   partitions on `rank <= split_rank` — the same rows `x <= threshold`
///   selects.
/// - its **bin**: the per-feature equal-frequency quantization of the
///   standard histogram-GBDT representation (cf. LightGBM), a
///   <= 256-valued code. Histogram split finding accumulates per-bin
///   label/gradient sums in O(n + bins) per feature per node. Bins are
///   contiguous rank ranges.
///
/// When a feature has at most `max_bins` distinct values every value
/// gets its own bin (bin == rank), which makes histogram split finding
/// reproduce the exact splitter bit-for-bit — the equivalence the tests
/// pin down. Values are assumed finite or infinite (the data layer
/// imputes NaNs before matrices reach the models); a NaN gets a rank of
/// its own below -inf or above +inf, by its sign bit.
class QuantizedDataset {
 public:
  QuantizedDataset() = default;

  /// Codes all rows of `x`, with at most `max_bins` bins per feature
  /// (clamped to [2, 256] so bin codes fit in a uint8_t): prepare(), then
  /// build_feature() for every feature.
  void build(const data::Matrix& x, std::size_t max_bins = 256);

  /// Sizes the coding for `x` and codes no feature yet; build_feature
  /// then codes each feature, in any order and on any thread (each
  /// writes only its own feature). Lets a caller code several matrices'
  /// columns as one job list. Throws on an empty matrix.
  void prepare(const data::Matrix& x, std::size_t max_bins = 256);
  /// Codes feature `f` of the matrix given to prepare().
  void build_feature(const data::Matrix& x, std::size_t f);

  bool empty() const { return rows_ == 0; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// The bin budget the coding was built with (after clamping).
  std::size_t max_bins() const { return max_bins_; }

  /// Number of distinct values of feature `f` (>= 1).
  std::size_t num_values(std::size_t f) const { return values_[f].size(); }

  /// Column-major rank span for feature `f` (length rows()): the rank of
  /// every row's value among the feature's distinct values.
  std::span<const std::uint32_t> ranks(std::size_t f) const {
    return {ranks_.data() + f * rows_, rows_};
  }

  /// The raw value of rank `r` of feature `f`.
  double value(std::size_t f, std::uint32_t r) const { return values_[f][r]; }

  /// Split threshold between ranks `lo < hi` of feature `f`: the midpoint
  /// between the two raw values, guarded against the midpoint rounding up
  /// to the upper value for adjacent doubles. `x <= threshold` routes
  /// left, so it selects exactly the rows of rank <= lo among rows whose
  /// rank is <= lo or >= hi.
  double threshold_between_ranks(std::size_t f, std::uint32_t lo, std::uint32_t hi) const {
    const double a = value(f, lo);
    const double b = value(f, hi);
    double thr = a + (b - a) / 2.0;
    if (thr >= b) thr = a;
    return thr;
  }

  /// Number of occupied bins for feature `f` (>= 1; 1 for a constant
  /// feature).
  std::size_t num_bins(std::size_t f) const { return bin_last_rank_[f].size(); }

  /// Column-major code span for feature `f` (length rows()): the bin
  /// index of every row's value.
  std::span<const std::uint8_t> codes(std::size_t f) const {
    return {codes_.data() + f * rows_, rows_};
  }

  /// Highest rank that fell into bin `b` of feature `f`.
  std::uint32_t bin_last_rank(std::size_t f, std::size_t b) const {
    return bin_last_rank_[f][b];
  }
  /// Lowest rank that fell into bin `b` of feature `f`.
  std::uint32_t bin_first_rank(std::size_t f, std::size_t b) const {
    return b == 0 ? 0 : bin_last_rank(f, b - 1) + 1;
  }

  /// Smallest / largest raw value that fell into bin `b` of feature `f`.
  double bin_lower(std::size_t f, std::size_t b) const { return value(f, bin_first_rank(f, b)); }
  double bin_upper(std::size_t f, std::size_t b) const { return value(f, bin_last_rank(f, b)); }

  /// Split threshold between bins `left` and `right` of feature `f`
  /// (right must be a later bin): threshold_between_ranks of the left
  /// bin's largest and the right bin's smallest value.
  double threshold_between(std::size_t f, std::size_t left, std::size_t right) const {
    return threshold_between_ranks(f, bin_last_rank(f, left), bin_first_rank(f, right));
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t max_bins_ = 0;
  std::vector<std::uint32_t> ranks_;  ///< column-major: ranks_[f * rows_ + r]
  std::vector<std::uint8_t> codes_;   ///< column-major: codes_[f * rows_ + r]
  std::vector<std::vector<double>> values_;  ///< per feature: sorted distinct values
  std::vector<std::vector<std::uint32_t>> bin_last_rank_;  ///< per feature, per bin
};

}  // namespace wefr::ml
