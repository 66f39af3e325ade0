#include "ml/quantize.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "ml/radix_sort.h"

namespace wefr::ml {

void QuantizedDataset::prepare(const data::Matrix& x, std::size_t max_bins) {
  if (x.rows() == 0 || x.cols() == 0)
    throw std::invalid_argument("QuantizedDataset::build: empty matrix");
  if (x.rows() > std::numeric_limits<std::uint32_t>::max() / 2)
    throw std::invalid_argument("QuantizedDataset::build: too many rows for 31-bit ranks");
  rows_ = x.rows();
  cols_ = x.cols();
  max_bins_ = std::clamp<std::size_t>(max_bins, 2, 256);
  ranks_.resize(rows_ * cols_);
  codes_.resize(rows_ * cols_);
  values_.assign(cols_, {});
  bin_last_rank_.assign(cols_, {});
}

void QuantizedDataset::build(const data::Matrix& x, std::size_t max_bins) {
  prepare(x, max_bins);
  for (std::size_t f = 0; f < cols_; ++f) build_feature(x, f);
}

namespace {

/// Order-preserving unsigned image of a finite double: negative values
/// flip every bit, the others set the sign bit, so unsigned order is
/// numeric order (-0.0 sorts just below +0.0, with nothing between).
std::uint64_t order_key(double v) {
  const auto bits = std::bit_cast<std::uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

double from_order_key(std::uint64_t key) {
  return std::bit_cast<double>((key >> 63) != 0 ? key & ~(std::uint64_t{1} << 63) : ~key);
}

struct KeyedRow {
  std::uint64_t key;
  std::uint32_t row;
};

}  // namespace

void QuantizedDataset::build_feature(const data::Matrix& x, std::size_t f) {
  const std::size_t max_bins = max_bins_;
  // Rows sorted by value; the radix sort is stable, so ties stay in row
  // order and the coding is deterministic.
  std::vector<KeyedRow> sorted(rows_), scratch;
  for (std::size_t r = 0; r < rows_; ++r)
    sorted[r] = {order_key(x(r, f)), static_cast<std::uint32_t>(r)};
  radix_sort(sorted, scratch, [](const KeyedRow& k) { return k.key; }, 64);

  std::uint32_t* rank_col = ranks_.data() + f * rows_;
  std::uint8_t* code_col = codes_.data() + f * rows_;
  auto& values = values_[f];
  for (const KeyedRow& k : sorted) {
    const double v = from_order_key(k.key);
    if (values.empty() || v != values.back()) values.push_back(v);
    rank_col[k.row] = static_cast<std::uint32_t>(values.size() - 1);
  }

  // One bin per distinct value when the budget allows (histogram splits
  // then reproduce the exact splitter bit-for-bit on this feature).
  // Otherwise equal-frequency bins: close a bin once it holds
  // ~rows/max_bins values and the next value differs (ties never
  // straddle bins); budget exhaustion folds the tail into the last bin.
  auto& last_rank = bin_last_rank_[f];
  const bool one_per_value = values.size() <= max_bins;
  const std::size_t target = (rows_ + max_bins - 1) / max_bins;
  std::size_t bin_start = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::uint32_t row = sorted[r].row;
    code_col[row] = static_cast<std::uint8_t>(last_rank.size());
    const bool last = r + 1 == rows_;
    const bool boundary = !last && rank_col[row] != rank_col[sorted[r + 1].row];
    const bool full = r + 1 - bin_start >= target && last_rank.size() + 1 < max_bins;
    if (last || (boundary && (one_per_value || full))) {
      last_rank.push_back(rank_col[row]);
      bin_start = r + 1;
    }
  }
}

}  // namespace wefr::ml
