// Host-side dense matrices.
//
// The public GEMM API follows BLAS convention: matrices live in column-major
// storage with a leading dimension. Row-major is also supported because the
// paper's kernels are tuned for row-major-aligned operand buffers.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace gemmtune {

using index_t = std::int64_t;

/// Storage order of a host matrix.
enum class StorageOrder { RowMajor, ColMajor };

/// Transpose op applied to an operand, as in the BLAS GEMM signature.
enum class Transpose { No, Yes };

/// Owning dense matrix with explicit leading dimension.
template <typename T>
class Matrix {
 public:
  Matrix() = default;

  /// Allocates a rows x cols matrix with tight leading dimension.
  Matrix(index_t rows, index_t cols,
         StorageOrder order = StorageOrder::ColMajor)
      : rows_(rows), cols_(cols), order_(order) {
    check(rows >= 0 && cols >= 0, "Matrix: negative extent");
    ld_ = order == StorageOrder::ColMajor ? rows : cols;
    if (ld_ == 0) ld_ = 1;
    data_.assign(static_cast<std::size_t>(
                     order == StorageOrder::ColMajor ? ld_ * cols : ld_ * rows),
                 T{});
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t ld() const { return ld_; }
  StorageOrder order() const { return order_; }

  /// Element access by (row, col) regardless of storage order.
  T& at(index_t r, index_t c) { return data_[offset(r, c)]; }
  const T& at(index_t r, index_t c) const { return data_[offset(r, c)]; }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

  /// Fills with uniform values in [lo, hi) from a deterministic stream.
  void fill_random(Rng& rng, T lo = T(-1), T hi = T(1)) {
    for (auto& v : data_)
      v = static_cast<T>(rng.next_double(static_cast<double>(lo),
                                         static_cast<double>(hi)));
  }

  /// Returns a transposed copy with the same storage order.
  Matrix<T> transposed() const {
    Matrix<T> out(cols_, rows_, order_);
    for (index_t r = 0; r < rows_; ++r)
      for (index_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
    return out;
  }

 private:
  std::size_t offset(index_t r, index_t c) const {
    check(r >= 0 && r < rows_ && c >= 0 && c < cols_,
          "Matrix: index out of range");
    return static_cast<std::size_t>(order_ == StorageOrder::ColMajor
                                        ? c * ld_ + r
                                        : r * ld_ + c);
  }

  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t ld_ = 1;
  StorageOrder order_ = StorageOrder::ColMajor;
  std::vector<T> data_;
};

/// Strides of logical element (r, c) of op(X): its offset in X.data() is
/// r * sr + c * sc. Lets a loop over a validated extent use raw pointers
/// instead of the bounds-checked at().
template <typename T>
void op_strides(const Matrix<T>& X, Transpose trans, index_t* sr,
                index_t* sc) {
  const index_t rs = X.order() == StorageOrder::RowMajor ? X.ld() : 1;
  const index_t cs = X.order() == StorageOrder::RowMajor ? 1 : X.ld();
  *sr = trans == Transpose::No ? rs : cs;
  *sc = trans == Transpose::No ? cs : rs;
}

/// Maximum absolute elementwise difference; used by tests and examples to
/// compare kernel output against the host reference.
template <typename T>
double max_abs_diff(const Matrix<T>& a, const Matrix<T>& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(),
        "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (index_t r = 0; r < a.rows(); ++r)
    for (index_t c = 0; c < a.cols(); ++c) {
      const double d = std::abs(static_cast<double>(a.at(r, c)) -
                                static_cast<double>(b.at(r, c)));
      if (d > m) m = d;
    }
  return m;
}

}  // namespace gemmtune
