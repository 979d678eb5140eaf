#include "blas/hostblas.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/intmath.hpp"
#include "common/thread_pool.hpp"

namespace gemmtune::hostblas {

namespace {

template <typename T>
T op_at(const Matrix<T>& X, Transpose t, index_t r, index_t c) {
  return t == Transpose::No ? X.at(r, c) : X.at(c, r);
}

template <typename T>
void check_shapes(Transpose ta, Transpose tb, index_t M, index_t N,
                  index_t K, const Matrix<T>& A, const Matrix<T>& B,
                  const Matrix<T>& C) {
  const index_t ar = ta == Transpose::No ? M : K;
  const index_t ac = ta == Transpose::No ? K : M;
  const index_t br = tb == Transpose::No ? K : N;
  const index_t bc = tb == Transpose::No ? N : K;
  check(A.rows() >= ar && A.cols() >= ac, "gemm: A too small");
  check(B.rows() >= br && B.cols() >= bc, "gemm: B too small");
  check(C.rows() >= M && C.cols() >= N, "gemm: C too small");
}

// The panel kernel. After check_shapes every operand is read through raw
// pointers and op_strides, and every index stays inside the validated
// M x N x K extents. Per kRowBlock-row block of op(A), a K-long panel is
// packed into per-chunk scratch as kMr-row slivers (k-major inside a
// sliver; rows past M are zero). Per kCols-column group of C, the group's
// K x kCols strip of op(B) is packed likewise (columns past N are zero) and
// each sliver is accumulated in a kMr x kCols stack tile, then written as
// alpha * acc + beta * C. Each element of C is the same sum over ascending
// k whatever the column groups a chunk covers, so C is bit-identical at any
// thread count.
constexpr index_t kRowBlock = 64;
constexpr index_t kCols = 4;
constexpr index_t kMr = 8;
static_assert(kRowBlock % kMr == 0, "slivers must tile a row block");

template <typename T>
struct Problem {
  index_t M, N, K;
  T alpha, beta;
  const T* a;
  index_t sam, sak;  // op(A)(m, k) = a[m * sam + k * sak]
  const T* b;
  index_t sbk, sbn;  // op(B)(k, n) = b[k * sbk + n * sbn]
  T* c;
  index_t scm, scn;  // C(m, n) = c[m * scm + n * scn]
};

template <typename T>
Problem<T> make_problem(Transpose ta, Transpose tb, index_t M, index_t N,
                        index_t K, T alpha, const Matrix<T>& A,
                        const Matrix<T>& B, T beta, Matrix<T>& C) {
  check_shapes(ta, tb, M, N, K, A, B, C);
  Problem<T> p{M, N, K, alpha, beta, A.data(), 0, 0, B.data(), 0, 0,
               C.data(), 0, 0};
  op_strides(A, ta, &p.sam, &p.sak);
  op_strides(B, tb, &p.sbk, &p.sbn);
  op_strides(C, Transpose::No, &p.scm, &p.scn);
  return p;
}

// Computes the column groups [g0, g1) of C.
template <typename T>
void panel_columns(const Problem<T>& p, index_t g0, index_t g1) {
  const index_t K = p.K;
  std::vector<T> apanel(static_cast<std::size_t>(kRowBlock * K));
  std::vector<T> bstrip(static_cast<std::size_t>(kCols * K));
  for (index_t m0 = 0; m0 < p.M; m0 += kRowBlock) {
    const index_t mb = std::min(kRowBlock, p.M - m0);
    const index_t slivers = ceil_div(mb, kMr);
    for (index_t s = 0; s < slivers; ++s) {
      T* dst = apanel.data() + s * kMr * K;
      const index_t r0 = m0 + s * kMr;
      const index_t rows = std::min(kMr, mb - s * kMr);
      for (index_t k = 0; k < K; ++k) {
        for (index_t i = 0; i < rows; ++i)
          dst[k * kMr + i] = p.a[(r0 + i) * p.sam + k * p.sak];
        for (index_t i = rows; i < kMr; ++i) dst[k * kMr + i] = T{};
      }
    }
    for (index_t g = g0; g < g1; ++g) {
      const index_t n0 = g * kCols;
      const index_t nc = std::min(kCols, p.N - n0);
      T* bs = bstrip.data();
      for (index_t k = 0; k < K; ++k) {
        for (index_t j = 0; j < nc; ++j)
          bs[k * kCols + j] = p.b[k * p.sbk + (n0 + j) * p.sbn];
        for (index_t j = nc; j < kCols; ++j) bs[k * kCols + j] = T{};
      }
      for (index_t s = 0; s < slivers; ++s) {
        T acc[kCols][kMr] = {};
        const T* ap = apanel.data() + s * kMr * K;
        const T* bp = bs;
        for (index_t k = 0; k < K; ++k, ap += kMr, bp += kCols)
          for (index_t j = 0; j < kCols; ++j)
            for (index_t i = 0; i < kMr; ++i) acc[j][i] += ap[i] * bp[j];
        const index_t rows = std::min(kMr, mb - s * kMr);
        T* cout = p.c + (m0 + s * kMr) * p.scm + n0 * p.scn;
        for (index_t j = 0; j < nc; ++j)
          for (index_t i = 0; i < rows; ++i) {
            T& out = cout[i * p.scm + j * p.scn];
            out = p.alpha * acc[j][i] + p.beta * out;
          }
      }
    }
  }
}

}  // namespace

template <typename T>
void gemm_naive(Transpose ta, Transpose tb, index_t M, index_t N, index_t K,
                T alpha, const Matrix<T>& A, const Matrix<T>& B, T beta,
                Matrix<T>& C) {
  check_shapes(ta, tb, M, N, K, A, B, C);
  for (index_t m = 0; m < M; ++m) {
    for (index_t n = 0; n < N; ++n) {
      T acc{};
      for (index_t k = 0; k < K; ++k)
        acc += op_at(A, ta, m, k) * op_at(B, tb, k, n);
      C.at(m, n) = alpha * acc + beta * C.at(m, n);
    }
  }
}

template <typename T>
void gemm_blocked(Transpose ta, Transpose tb, index_t M, index_t N,
                  index_t K, T alpha, const Matrix<T>& A, const Matrix<T>& B,
                  T beta, Matrix<T>& C) {
  const Problem<T> p = make_problem(ta, tb, M, N, K, alpha, A, B, beta, C);
  panel_columns(p, 0, ceil_div(N, kCols));
}

template <typename T>
void gemm_parallel(Transpose ta, Transpose tb, index_t M, index_t N,
                   index_t K, T alpha, const Matrix<T>& A,
                   const Matrix<T>& B, T beta, Matrix<T>& C, int threads) {
  const Problem<T> p = make_problem(ta, tb, M, N, K, alpha, A, B, beta, C);
  const auto run = [&](ThreadPool& pool) {
    pool.parallel_for(ceil_div(N, kCols),
                      [&](std::int64_t g0, std::int64_t g1, int) {
                        panel_columns(p, g0, g1);
                      });
  };
  if (threads > 0) {
    ThreadPool pool(threads);
    run(pool);
  } else {
    run(ThreadPool::global());
  }
}

template void gemm_naive(Transpose, Transpose, index_t, index_t, index_t,
                         float, const Matrix<float>&, const Matrix<float>&,
                         float, Matrix<float>&);
template void gemm_naive(Transpose, Transpose, index_t, index_t, index_t,
                         double, const Matrix<double>&,
                         const Matrix<double>&, double, Matrix<double>&);
template void gemm_blocked(Transpose, Transpose, index_t, index_t, index_t,
                           float, const Matrix<float>&, const Matrix<float>&,
                           float, Matrix<float>&);
template void gemm_blocked(Transpose, Transpose, index_t, index_t, index_t,
                           double, const Matrix<double>&,
                           const Matrix<double>&, double, Matrix<double>&);
template void gemm_parallel(Transpose, Transpose, index_t, index_t, index_t,
                            float, const Matrix<float>&,
                            const Matrix<float>&, float, Matrix<float>&,
                            int);
template void gemm_parallel(Transpose, Transpose, index_t, index_t, index_t,
                            double, const Matrix<double>&,
                            const Matrix<double>&, double, Matrix<double>&,
                            int);

}  // namespace gemmtune::hostblas
