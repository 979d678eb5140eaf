// BLAS-level tests: host reference implementations against each other, and
// the GemmEngine's four multiplication types executed functionally through
// the generated kernels (paper Section IV-B pipeline).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "blas/gemm.hpp"
#include "blas/hostblas.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "simcl/device_registry.hpp"
#include "trace/trace.hpp"

namespace gemmtune {
namespace {

using blas::GemmEngine;
using codegen::Precision;
using simcl::DeviceId;

// Operands for op(A) M x K, op(B) K x N and C M x N in the given storage
// orders, filled from `seed`.
template <typename T>
struct HostProblem {
  Matrix<T> A, B, C;
  HostProblem(Transpose ta, Transpose tb, index_t M, index_t N, index_t K,
              StorageOrder oa, StorageOrder ob, StorageOrder oc,
              std::uint64_t seed)
      : A(ta == Transpose::No ? M : K, ta == Transpose::No ? K : M, oa),
        B(tb == Transpose::No ? K : N, tb == Transpose::No ? N : K, ob),
        C(M, N, oc) {
    Rng rng(seed);
    A.fill_random(rng);
    B.fill_random(rng);
    C.fill_random(rng);
  }
};

// naive, blocked and parallel agree on shapes that cross the panel kernel's
// edges (64-row blocks, 8-row slivers, 4-column groups), for every storage
// order of A, B and C under all four transposes.
template <typename T>
void check_host_variants() {
  const StorageOrder orders[] = {StorageOrder::RowMajor,
                                 StorageOrder::ColMajor};
  const T alpha = T(1.25), beta = T(-0.75);
  for (GemmType t : all_gemm_types())
    for (StorageOrder oa : orders)
      for (StorageOrder ob : orders)
        for (StorageOrder oc : orders)
          for (index_t M : {1, 63, 64, 65, 130})
            for (index_t N : {1, 3, 4, 5, 9})
              for (index_t K : {1, 70}) {
                const Transpose ta = trans_a(t), tb = trans_b(t);
                HostProblem<T> p(ta, tb, M, N, K, oa, ob, oc, 31);
                Matrix<T> Cnaive = p.C, Cblocked = p.C, Cparallel = p.C;
                hostblas::gemm_naive(ta, tb, M, N, K, alpha, p.A, p.B, beta,
                                     Cnaive);
                hostblas::gemm_blocked(ta, tb, M, N, K, alpha, p.A, p.B,
                                       beta, Cblocked);
                hostblas::gemm_parallel(ta, tb, M, N, K, alpha, p.A, p.B,
                                        beta, Cparallel, 3);
                const double tol = hostblas::gemm_tolerance<T>(K);
                SCOPED_TRACE(std::string(to_string(t)) + " " +
                             std::to_string(M) + "x" + std::to_string(N) +
                             "x" + std::to_string(K) + " row-major A/B/C " +
                             std::to_string(oa == StorageOrder::RowMajor) +
                             std::to_string(ob == StorageOrder::RowMajor) +
                             std::to_string(oc == StorageOrder::RowMajor));
                ASSERT_LE(max_abs_diff(Cnaive, Cblocked), tol);
                ASSERT_LE(max_abs_diff(Cnaive, Cparallel), tol);
              }
}

TEST(HostBlas, VariantsAgreeDouble) { check_host_variants<double>(); }

TEST(HostBlas, VariantsAgreeFloat) { check_host_variants<float>(); }

TEST(HostBlas, ShapeChecks) {
  Matrix<double> A(2, 3), B(3, 2), C(2, 2), Bad(1, 1);
  EXPECT_NO_THROW(hostblas::gemm_naive(Transpose::No, Transpose::No, 2, 2, 3,
                                       1.0, A, B, 0.0, C));
  EXPECT_THROW(hostblas::gemm_naive(Transpose::No, Transpose::No, 2, 2, 3,
                                    1.0, Bad, B, 0.0, C),
               Error);
  try {
    hostblas::gemm_parallel(Transpose::No, Transpose::No, 2, 2, 3, 1.0, A,
                            Bad, 0.0, C);
    FAIL() << "gemm_parallel accepted a too-small B";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("hostblas.cpp:"), std::string::npos) << what;
    EXPECT_EQ(what.substr(what.rfind(": ") + 2), "B too small") << what;
  }
}

template <typename T>
void check_thread_invariance(Transpose ta, Transpose tb) {
  const index_t M = 130, N = 37, K = 70;
  HostProblem<T> p(ta, tb, M, N, K, StorageOrder::ColMajor,
                   StorageOrder::RowMajor, StorageOrder::ColMajor, 41);
  Matrix<T> ref = p.C;
  hostblas::gemm_blocked(ta, tb, M, N, K, T(1.5), p.A, p.B, T(0.5), ref);
  for (int threads : {1, 2, 3, 7, 0}) {  // 0: the global pool
    Matrix<T> C = p.C;
    hostblas::gemm_parallel(ta, tb, M, N, K, T(1.5), p.A, p.B, T(0.5), C,
                            threads);
    EXPECT_EQ(std::memcmp(C.data(), ref.data(), C.size() * sizeof(T)), 0)
        << "threads " << threads;
  }
}

TEST(HostBlas, ParallelIsBitIdenticalAcrossThreadCounts) {
  for (GemmType t : all_gemm_types()) {
    check_thread_invariance<double>(trans_a(t), trans_b(t));
    check_thread_invariance<float>(trans_a(t), trans_b(t));
  }
}

// check() takes its message as a view; the thrown text must still be the
// caller's "file:line: message".
TEST(HostBlas, CheckFailureCarriesFileLineAndMessage) {
  const std::string msg = "a message longer than the small-string buffer";
  const int line = __LINE__ + 2;
  try {
    check(false, msg);
    FAIL() << "check(false) did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              std::string(__FILE__) + ":" + std::to_string(line) + ": " +
                  msg);
  }
}

// ---- GemmEngine functional path ------------------------------------------------

template <typename T>
void run_engine_type(DeviceId dev, GemmType type, index_t M, index_t N,
                     index_t K, std::uint64_t seed) {
  GemmEngine engine(dev);
  const Transpose ta = trans_a(type), tb = trans_b(type);
  Rng rng(seed);
  Matrix<T> A(ta == Transpose::No ? M : K, ta == Transpose::No ? K : M);
  Matrix<T> B(tb == Transpose::No ? K : N, tb == Transpose::No ? N : K);
  Matrix<T> C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  const auto prof = engine.gemm(ta, tb, M, N, K, T(1.25), A, B, T(0.5), C,
                                /*verify=*/true);
  EXPECT_GE(prof.max_error, 0);
  EXPECT_LE(prof.max_error, hostblas::gemm_tolerance<T>(K))
      << simcl::to_string(dev) << " " << to_string(type);
  EXPECT_GT(prof.total_seconds, 0);
  EXPECT_GT(prof.kernel_seconds, 0);
  if (prof.used_direct) {
    // The copy-free path has no pack/unpack time at all.
    EXPECT_DOUBLE_EQ(prof.copy_seconds, 0.0);
  } else {
    EXPECT_GT(prof.copy_seconds, 0);
  }
  EXPECT_NEAR(prof.total_seconds, prof.kernel_seconds + prof.copy_seconds,
              1e-12);
  EXPECT_GT(prof.gflops, 0);
}

TEST(GemmEngine, AllFourTypesDoubleOnTahiti) {
  for (GemmType t : all_gemm_types())
    run_engine_type<double>(DeviceId::Tahiti, t, 100, 37, 50, 21);
}

TEST(GemmEngine, AllFourTypesFloatOnTahiti) {
  for (GemmType t : all_gemm_types())
    run_engine_type<float>(DeviceId::Tahiti, t, 100, 37, 50, 22);
}

TEST(GemmEngine, FunctionalOnEveryDevice) {
  // Every device's tuned kernel must produce correct results for an
  // awkward (padded) problem shape.
  for (DeviceId dev : simcl::evaluation_devices()) {
    run_engine_type<double>(dev, GemmType::NN, 70, 41, 33, 23);
    run_engine_type<float>(dev, GemmType::TN, 70, 41, 33, 24);
  }
}

TEST(GemmEngine, EstimateMatchesPaperScaleOnTahiti) {
  GemmEngine engine(DeviceId::Tahiti);
  // Table III: our DGEMM implementation reaches ~852 GFlop/s on Tahiti at
  // large sizes (column-major, including copy overhead).
  const double g = engine.estimate_gflops(GemmType::NN, Precision::DP, 5760);
  EXPECT_GT(g, 780);
  EXPECT_LT(g, 960);
}

TEST(GemmEngine, CopyOverheadDominatesSmallSizes) {
  // Paper Section IV-B: "the current implementation is not fast for small
  // sizes because the ratio of copying time to total time is relatively
  // big", amortized as O(N^2)/O(N^3) at larger sizes.
  GemmEngine engine(DeviceId::Tahiti);
  const auto small = engine.estimate(GemmType::NN, Precision::DP, 256, 256,
                                     256);
  const auto large = engine.estimate(GemmType::NN, Precision::DP, 4096, 4096,
                                     4096);
  EXPECT_GT(small.copy_seconds / small.total_seconds,
            large.copy_seconds / large.total_seconds);
  EXPECT_LT(large.copy_seconds / large.total_seconds, 0.2);
  EXPECT_LT(small.gflops, large.gflops);
}

TEST(GemmEngine, TypeInsensitivity) {
  // Table III: our implementation's performance "does not highly depend on
  // GEMM types" — all four types pack into the same A^T*B kernel.
  GemmEngine engine(DeviceId::Cayman);
  double lo = 1e30, hi = 0;
  for (GemmType t : all_gemm_types()) {
    const double g = engine.estimate_gflops(t, Precision::SP, 3840);
    lo = std::min(lo, g);
    hi = std::max(hi, g);
  }
  EXPECT_LT((hi - lo) / hi, 0.02);
}

}  // namespace
}  // namespace gemmtune

namespace gemmtune {
namespace {

TEST(GemmEngine, HonorsAnInjectedTuningDatabase) {
  // A database tuned elsewhere (e.g. by the CLI) drives the engine: inject
  // a deliberately different kernel and observe it being used.
  codegen::KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 16;
  p.Nwg = 16;
  p.Kwg = 8;
  p.MdimC = p.NdimC = 8;
  p.MdimA = p.NdimB = 8;
  p.Kwi = 2;
  p.vw = 1;
  p.share_a = p.share_b = true;
  tuner::TunedDatabase db;
  db.put(DeviceId::Tahiti, Precision::DP,
         tuner::profile_kernel(DeviceId::Tahiti, p, 1024));
  GemmEngine engine(DeviceId::Tahiti, std::move(db));
  EXPECT_EQ(engine.kernel_for(Precision::DP).params, p);
  // And the functional path runs correctly with it.
  run_engine_type<double>(DeviceId::Tahiti, GemmType::NT, 40, 24, 20, 77);
}

// The verify oracle runs under exactly one gemm.verify span per verified
// call, on both the direct and the packed path, and never without verify.
TEST(GemmEngine, VerifySpanOnlyWhenVerifying) {
  trace::reset();
  trace::set_enabled(true);
  const auto verify_spans = [] {
    const Json spans = trace::metrics_json().at("spans");
    return spans.contains("gemm.verify")
               ? spans.at("gemm.verify").at("count").as_int()
               : 0;
  };
  for (bool direct : {true, false}) {
    GemmEngine engine(DeviceId::Tahiti);
    engine.set_direct_path(direct);
    Matrix<double> A(24, 20), B(20, 16), C(24, 16);
    Rng rng(5);
    A.fill_random(rng);
    B.fill_random(rng);
    trace::reset();
    const auto prof = engine.gemm(Transpose::No, Transpose::No, 24, 16, 20,
                                  1.0, A, B, 0.0, C, /*verify=*/false);
    EXPECT_EQ(prof.used_direct, direct);
    EXPECT_EQ(verify_spans(), 0);
    trace::reset();
    engine.gemm(Transpose::No, Transpose::No, 24, 16, 20, 1.0, A, B, 0.0, C,
                /*verify=*/true);
    EXPECT_EQ(verify_spans(), 1) << "direct " << direct;
  }
  trace::set_enabled(false);
  trace::reset();
}

TEST(GemmEngine, RectangularProblemsAllDevices) {
  for (DeviceId dev : {DeviceId::Cayman, DeviceId::SandyBridge}) {
    run_engine_type<double>(dev, GemmType::TT, 90, 30, 55, 88);
    run_engine_type<float>(dev, GemmType::NT, 33, 120, 47, 89);
  }
}

}  // namespace
}  // namespace gemmtune
