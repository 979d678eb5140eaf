// Shared declarations of the wall-clock GEMM benchmark.
//
// The benchmark drives the gemmtune libraries only through their public
// headers: it generates seeded GEMM requests, times GemmEngine::gemm and
// AsyncServer::run from outside, checks every result with its own
// arithmetic (never the library's), and, in the traced run, replays each
// request's layer calls itself to attribute wall time to layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "codegen/params.hpp"
#include "layout/gemm_type.hpp"
#include "layout/matrix.hpp"
#include "simcl/device_registry.hpp"

namespace perfbench {

using gemmtune::GemmType;
using gemmtune::index_t;
using gemmtune::Matrix;
using gemmtune::Transpose;
using gemmtune::codegen::Precision;
using gemmtune::simcl::DeviceId;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- requests

/// One GEMM request of a closed-loop workload.
struct Request {
  std::int64_t id = 0;
  DeviceId device = DeviceId::Tahiti;
  Precision prec = Precision::SP;
  GemmType type = GemmType::NN;
  index_t M = 0, N = 0, K = 0;
  double alpha = 1, beta = 0;
  std::uint64_t data_seed = 0;  ///< seeds the operand values

  double flops() const { return 2.0 * double(M) * double(N) * double(K); }
};

/// Whether the direct kernel (work-group tile `q`, the engine's
/// direct_variant) that GemmEngine::gemm launches for `r` is the
/// fringe-guarded one: the engine's choice, mirrored here once for the
/// kernel scan and the traced replay.
inline bool direct_guarded(const gemmtune::codegen::KernelParams& q,
                           const Request& r) {
  return r.M % q.Mwg != 0 || r.N % q.Nwg != 0 || r.K % q.Kwg != 0;
}

/// Devices of every workload: the paper's Table II GPU and CPU.
inline const std::vector<DeviceId>& bench_devices() {
  static const std::vector<DeviceId> d = {DeviceId::Tahiti,
                                          DeviceId::SandyBridge};
  return d;
}

/// Requests per gemm_mixed round: every device x precision x type combo
/// (16) gets 5 small (16..127) and 2 large (256..511) problems.
inline constexpr int kMixedSmallPerCombo = 5;
inline constexpr int kMixedLargePerCombo = 2;
inline constexpr int kMixedRound =
    16 * (kMixedSmallPerCombo + kMixedLargePerCombo);
/// Requests per verify_large round: one per combo.
inline constexpr int kVerifyRound = 16;

/// Round `round` of a workload's request stream. Pure function of
/// (seed, round): the same seed always yields the same stream. Extents
/// are drawn within fixed strata of the size range, so every round has the
/// same size mix per device, precision and type; the jitter within a
/// stratum, the scalars, the operand values and the order depend on the
/// seed. A run's percentiles then do not hinge on which shapes a seed drew.
std::vector<Request> mixed_round(std::uint64_t seed, std::int64_t round);
std::vector<Request> verify_round(std::uint64_t seed, std::int64_t round);

// ------------------------------------------------------- operands + checks

/// Operands of one request, laid out as GemmEngine::gemm expects
/// (column-major, A is M x K or K x M when transposed, likewise B).
template <typename T>
struct Operands {
  Matrix<T> A, B, C, Cin;
};

template <typename T>
Operands<T> make_operands(const Request& r);

/// Checks C against alpha*op(A)*op(B) + beta*Cin with the benchmark's own
/// arithmetic: a randomized row check over all of C (C*x against
/// alpha*op(A)*(op(B)*x) + beta*Cin*x, which catches any single wrong
/// entry) and `samples` seeded entries recomputed as dot products. Returns
/// "" when C is correct, else what was wrong.
template <typename T>
std::string check_result(const Request& r, const Operands<T>& op,
                         std::uint64_t check_seed, int samples = 16);

/// FNV-1a 64 of a byte range (the result-hash convention of serve).
std::uint64_t fnv1a(const void* data, std::size_t bytes);
/// splitmix64 finalizer (the per-request operand-seed convention of serve).
std::uint64_t splitmix(std::uint64_t x);

// ------------------------------------------------------------------ stats

double percentile(std::vector<double> v, double q);  ///< nearest-rank
double median(std::vector<double> v);

// ----------------------------------------------------------------- spans

/// In-memory span recorder of the traced run; written out at the end.
struct SpanRec {
  const char* name;
  std::int64_t start_ns, end_ns;
  int parent;  ///< index of the parent span, -1 for a root
  std::int64_t request;
};

class Tracer {
 public:
  int begin(const char* name, int parent, std::int64_t request) {
    spans_.push_back({name, now_ns(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int i) { spans_[static_cast<std::size_t>(i)].end_ns = now_ns(); }
  const std::vector<SpanRec>& spans() const { return spans_; }

  /// Per-request total duration (ms) of spans named `name`.
  std::map<std::int64_t, double> per_request_ms(const std::string& name) const;
  void write_json(const std::string& path, const std::string& identity) const;

 private:
  std::vector<SpanRec> spans_;
};

/// RAII span on a Tracer (no-op when the tracer is null).
class Scope {
 public:
  Scope(Tracer* t, const char* name, int parent, std::int64_t request)
      : t_(t), i_(t ? t->begin(name, parent, request) : -1) {}
  ~Scope() {
    if (t_) t_->end(i_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return i_; }

 private:
  Tracer* t_;
  int i_;
};

// ---------------------------------------------------------------- replay

/// What one replayed request measured besides its spans.
struct ReplayStats {
  bool direct = false;
  double launch_flops = 0;   ///< interpreter Counters
  double launch_bytes = 0;   ///< global load + store bytes (Counters)
  double packed_bytes = 0;   ///< bytes written into packed operand buffers
  double oracle_error = -1;  ///< max |C - hostblas| when verifying
};

/// Replays GemmEngine::gemm's layer calls for one request on `C` (which
/// holds Cin on entry and the result on return), recording one span per
/// layer call under `parent`, on the process-wide interpreter backend.
/// With `verify`, also runs the hostblas oracle on a copy of Cin.
template <typename T>
ReplayStats replay_gemm(Tracer& tr, int parent, const Request& r,
                        gemmtune::blas::GemmEngine& engine,
                        const Matrix<T>& A, const Matrix<T>& B, Matrix<T>& C,
                        bool verify);

// ------------------------------------------------------------------ peak

/// Measured peak fused multiply-add rate of the host in GFlop/s, over
/// `threads` threads for about `seconds` seconds.
double measure_fma_peak_gflops(bool single_precision, int threads,
                               double seconds);

}  // namespace perfbench
