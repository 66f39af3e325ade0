#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

namespace wefr::data {

namespace detail {

/// Allocator whose plain construct() default-initializes — i.e. leaves
/// trivially-constructible elements uninitialized. Lets
/// Matrix::uninitialized() skip the zero fill for buffers the caller is
/// about to overwrite entirely (the rolling-feature expansion writes
/// every cell; zeroing 1+ MB per drive first is pure write traffic).
/// Fill- and copy-construction are unchanged.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Dense row-major matrix of doubles.
///
/// The sample matrix handed to selectors and models: rows are samples,
/// columns are learning features. Kept deliberately simple — contiguous
/// storage, bounds-checked accessors in debug, `row()` views as spans.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a `rows x cols` matrix initialized to `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Creates a `rows x cols` matrix with UNINITIALIZED contents; the
  /// caller must write every cell before reading any. For hot paths
  /// that fully overwrite the matrix anyway (e.g. window expansion).
  static Matrix uninitialized(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols, UninitTag{});
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Bounds-checked element access.
  double& at(std::size_t r, std::size_t c) {
    check(r, c);
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    check(r, c);
    return data_[r * cols_ + c];
  }

  /// Mutable view of row `r`.
  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  /// Immutable view of row `r`.
  std::span<const double> row(std::size_t r) const { return {data_.data() + r * cols_, cols_}; }

  /// Copies column `c` out into a vector.
  std::vector<double> column(std::size_t c) const {
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = data_[r * cols_ + c];
    return out;
  }

  /// Appends a row; its length must equal `cols()` (or defines it when
  /// the matrix is still empty).
  void push_row(std::span<const double> row) {
    if (rows_ == 0 && cols_ == 0) {
      cols_ = row.size();
    } else if (row.size() != cols_) {
      throw std::invalid_argument("Matrix::push_row: width mismatch");
    }
    data_.insert(data_.end(), row.begin(), row.end());
    ++rows_;
  }

  /// Reserves storage for `rows` rows of the current width, so that
  /// many push_row calls append without regrowth.
  void reserve_rows(std::size_t rows) { data_.reserve(rows * cols_); }

  /// Returns a new matrix keeping only the columns in `cols` (in order).
  Matrix select_columns(std::span<const std::size_t> cols) const {
    Matrix out(rows_, cols.size());
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] >= cols_) throw std::out_of_range("Matrix::select_columns");
        out(r, i) = (*this)(r, cols[i]);
      }
    }
    return out;
  }

  /// Returns a new matrix keeping only the rows in `rows` (in order).
  Matrix select_rows(std::span<const std::size_t> rows) const {
    Matrix out(rows.size(), cols_);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i] >= rows_) throw std::out_of_range("Matrix::select_rows");
      auto src = row(rows[i]);
      std::copy(src.begin(), src.end(), out.row(i).begin());
    }
    return out;
  }

  /// Copies the contiguous row block [begin, begin + count) into a new
  /// matrix. Cheaper than select_rows for ranges (single memcpy).
  Matrix slice_rows(std::size_t begin, std::size_t count) const {
    if (begin + count > rows_) throw std::out_of_range("Matrix::slice_rows");
    Matrix out(count, cols_);
    std::copy(data_.begin() + static_cast<std::ptrdiff_t>(begin * cols_),
              data_.begin() + static_cast<std::ptrdiff_t>((begin + count) * cols_),
              out.data_.begin());
    return out;
  }

  /// Raw contiguous storage (row-major).
  std::span<const double> raw() const { return data_; }
  std::span<double> raw() { return data_; }

 private:
  struct UninitTag {};

  Matrix(std::size_t rows, std::size_t cols, UninitTag)
      : rows_(rows), cols_(cols), data_(rows * cols) {}

  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  // DefaultInitAllocator: vector(count) leaves doubles uninitialized
  // (UninitTag path); fill/copy construction behaves exactly like
  // std::vector<double>.
  std::vector<double, detail::DefaultInitAllocator<double>> data_;
};

}  // namespace wefr::data
