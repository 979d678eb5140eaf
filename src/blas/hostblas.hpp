// Host reference GEMM implementations.
//
// Two kernels: a naive triple loop (ground truth in tests) and a
// panel-packed kernel, run serially by gemm_blocked and over a thread pool
// by gemm_parallel. These play the role the authors' host-side
// verification code plays — every device kernel result is checked against
// gemm_parallel — and serve as the CPU fallback in the examples. Every
// variant sums each element of C over ascending k, so the panel kernel's
// result does not depend on the thread count.
#pragma once

#include "layout/matrix.hpp"

namespace gemmtune::hostblas {

/// C <- alpha * op(A) * op(B) + beta * C, naive triple loop.
/// op(A) is M x K and op(B) is K x N; C is M x N.
template <typename T>
void gemm_naive(Transpose ta, Transpose tb, index_t M, index_t N, index_t K,
                T alpha, const Matrix<T>& A, const Matrix<T>& B, T beta,
                Matrix<T>& C);

/// Panel-packed single-threaded GEMM (same contract as gemm_naive).
template <typename T>
void gemm_blocked(Transpose ta, Transpose tb, index_t M, index_t N,
                  index_t K, T alpha, const Matrix<T>& A, const Matrix<T>& B,
                  T beta, Matrix<T>& C);

/// The panel-packed GEMM split over column groups of C. `threads` <= 0
/// runs on ThreadPool::global(), i.e. configured_threads() workers (the
/// --threads flag or GEMMTUNE_THREADS); `threads` > 0 on a pool of its own
/// of that size. C is bit-identical at every thread count and equal to
/// gemm_blocked's.
template <typename T>
void gemm_parallel(Transpose ta, Transpose tb, index_t M, index_t N,
                   index_t K, T alpha, const Matrix<T>& A,
                   const Matrix<T>& B, T beta, Matrix<T>& C,
                   int threads = 0);

/// Acceptable elementwise tolerance for comparing a K-term accumulation in
/// precision T against the reference (forward-error style bound).
template <typename T>
double gemm_tolerance(index_t K) {
  const double eps = std::is_same_v<T, float> ? 1.2e-7 : 2.3e-16;
  return 8.0 * eps * static_cast<double>(K > 4 ? K : 4);
}

}  // namespace gemmtune::hostblas
