// Micro-benchmarks (google-benchmark): interpreter throughput on generated
// GEMM kernels for the interpreter backends (bytecode VM vs the
// tree-walking reference, plus the native JIT in --native mode), and
// performance-model / search-engine evaluation rates (the quantities that
// bound a full tuning run's wall-clock).
//
// Besides the timed runs, main() performs a deterministic differential
// check: all backends must produce bit-identical buffers and counters (at
// several thread counts), and the bytecode backend must be at least 3x
// faster single-threaded than the tree walker. The pass/fail bits and the
// dynamic counters are recorded as scalars (gated against
// bench/baselines/micro_interp.json); wall-clock numbers go to gauges,
// which the baseline gate never compares.
//
// With --native the bench becomes "micro_interp_native": it times the
// native JIT backend too and gates a three-way differential plus the
// native >= 3x-over-bytecode speedup bit against
// bench/baselines/micro_interp_native.json. Without a usable host
// toolchain the native run exits 3 so harnesses can skip it.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>

#include "bench_util.hpp"

#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/rng.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "perfmodel/model.hpp"
#include "simcl/runtime.hpp"

using namespace gemmtune;
using codegen::Precision;

namespace {

codegen::KernelParams micro_params() {
  codegen::KernelParams p;
  p.prec = Precision::DP;
  p.Mwg = 16;
  p.Nwg = 16;
  p.Kwg = 8;
  p.MdimC = p.NdimC = 8;
  p.MdimA = p.NdimB = 8;
  p.Kwi = 2;
  p.vw = 2;
  p.share_a = p.share_b = true;
  return p;
}

/// One prepared launch: kernel, geometry, and freshly-filled buffers.
struct MicroLaunch {
  ir::Kernel kernel;
  codegen::LaunchGeometry geo;
  simcl::BufferPtr dA, dB, dC;
  std::vector<ir::ArgValue> args;

  explicit MicroLaunch(std::int64_t n) {
    const codegen::KernelParams p = micro_params();
    const int es = element_bytes(p.prec);
    const auto bytes = static_cast<std::size_t>(n * n * es);
    dA = std::make_shared<simcl::Buffer>(bytes);
    dB = std::make_shared<simcl::Buffer>(bytes);
    dC = std::make_shared<simcl::Buffer>(bytes);
    Rng rng(7);
    for (std::int64_t i = 0; i < n * n; ++i) {
      dA->as<double>()[i] = rng.next_double(-1.0, 1.0);
      dB->as<double>()[i] = rng.next_double(-1.0, 1.0);
    }
    kernel = codegen::generate_gemm_kernel(p);
    geo = codegen::launch_geometry(p, n, n);
    args.resize(8);
    args[codegen::GemmKernelArgs::C] = ir::ArgValue::of(dC);
    args[codegen::GemmKernelArgs::A] = ir::ArgValue::of(dA);
    args[codegen::GemmKernelArgs::B] = ir::ArgValue::of(dB);
    args[codegen::GemmKernelArgs::M] = ir::ArgValue::of_int(n);
    args[codegen::GemmKernelArgs::N] = ir::ArgValue::of_int(n);
    args[codegen::GemmKernelArgs::K] = ir::ArgValue::of_int(n);
    args[codegen::GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.5);
    args[codegen::GemmKernelArgs::beta] = ir::ArgValue::of_float(0.0);
  }

  ir::Counters run(ir::Backend backend, int threads) const {
    return ir::launch_with_backend(kernel, geo.global, geo.local, args,
                                   threads, backend);
  }
};

void BM_InterpretGemmKernel(benchmark::State& state, ir::Backend backend) {
  const MicroLaunch ml(state.range(0));
  // Warm the compiled-program cache so a first-iteration JIT (native
  // backend) or bytecode compile never lands inside the timing loop.
  (void)ml.run(backend, 1);
  std::uint64_t mads = 0;
  for (auto _ : state) {
    const auto c = ml.run(backend, 1);
    mads += c.mads;
  }
  state.counters["interp_mads/s"] = benchmark::Counter(
      static_cast<double>(mads), benchmark::Counter::kIsRate);
}

void BM_InterpTree(benchmark::State& s) {
  BM_InterpretGemmKernel(s, ir::Backend::Tree);
}
void BM_InterpBytecode(benchmark::State& s) {
  BM_InterpretGemmKernel(s, ir::Backend::Bytecode);
}
void BM_InterpNative(benchmark::State& s) {
  BM_InterpretGemmKernel(s, ir::Backend::Native);
}

BENCHMARK(BM_InterpTree)->Arg(32)->Arg(64);
BENCHMARK(BM_InterpBytecode)->Arg(32)->Arg(64);

void BM_GenerateKernel(benchmark::State& state) {
  const auto p =
      codegen::table2_entry(simcl::DeviceId::Tahiti, Precision::SP).params;
  for (auto _ : state) {
    ir::Kernel k = codegen::generate_gemm_kernel(p);
    benchmark::DoNotOptimize(k.body.data());
  }
}

BENCHMARK(BM_GenerateKernel);

void BM_PerfModelEstimate(benchmark::State& state) {
  perfmodel::PerfModel model(simcl::DeviceId::Tahiti);
  const auto p =
      codegen::table2_entry(simcl::DeviceId::Tahiti, Precision::DP).params;
  (void)model.kernel_gflops(p, 4032);  // warm the anchor cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.kernel_gflops(p, 4032));
  }
}

BENCHMARK(BM_PerfModelEstimate);

// ---- deterministic differential + speedup gate -----------------------------

double min_seconds(int reps, const MicroLaunch& ml, ir::Backend backend) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    (void)ml.run(backend, 1);
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s < best) best = s;
  }
  return best;
}

void differential_check() {
  bench::section("Backend differential (tree vs bytecode, Table II shape)");
  const std::int64_t n = 64;
  const MicroLaunch tree_ml(n);
  const MicroLaunch byte_ml(n);
  const MicroLaunch byte4_ml(n);
  const ir::Counters ct = tree_ml.run(ir::Backend::Tree, 1);
  const ir::Counters cb = byte_ml.run(ir::Backend::Bytecode, 1);
  const ir::Counters cb4 = byte4_ml.run(ir::Backend::Bytecode, 4);
  const bool buffers_equal =
      std::memcmp(tree_ml.dC->data(), byte_ml.dC->data(),
                  tree_ml.dC->size()) == 0 &&
      std::memcmp(byte_ml.dC->data(), byte4_ml.dC->data(),
                  byte_ml.dC->size()) == 0;
  const bool counters_equal = ct == cb && cb == cb4;
  bench::scalar("interp.buffers_equal", buffers_equal ? 1 : 0);
  bench::scalar("interp.counters_equal", counters_equal ? 1 : 0);
  bench::scalar("interp.flops", static_cast<double>(cb.flops));
  bench::scalar("interp.mads", static_cast<double>(cb.mads));
  bench::scalar("interp.global_load_bytes",
                static_cast<double>(cb.global_load_bytes));
  bench::scalar("interp.global_store_bytes",
                static_cast<double>(cb.global_store_bytes));
  bench::scalar("interp.local_load_bytes",
                static_cast<double>(cb.local_load_bytes));
  bench::scalar("interp.local_store_bytes",
                static_cast<double>(cb.local_store_bytes));
  bench::scalar("interp.barriers", static_cast<double>(cb.barriers));

  // Single-thread speedup on the warmed compiled-program cache; the >= 3x
  // bit is the gated acceptance criterion, the raw ratio is a gauge.
  const double t_tree = min_seconds(3, tree_ml, ir::Backend::Tree);
  const double t_byte = min_seconds(5, byte_ml, ir::Backend::Bytecode);
  const double speedup = t_tree / t_byte;
  trace::gauge_set("micro_interp.speedup_tree_over_bytecode", speedup);
  bench::scalar("interp.speedup_ge3x", speedup >= 3.0 ? 1 : 0);
  bench::note(strf("buffers_equal=%d counters_equal=%d speedup=%.1fx "
                   "(tree %.2f ms, bytecode %.2f ms, single thread)",
                   buffers_equal ? 1 : 0, counters_equal ? 1 : 0, speedup,
                   1e3 * t_tree, 1e3 * t_byte));
}

/// --native mode: the native JIT joins the differential. All three
/// backends must agree byte-for-byte (buffers and counters, serial and
/// 4-thread native), and the JIT'd kernel must beat the bytecode VM by
/// >= 3x single-threaded on the Table II micro shape.
void native_differential_check() {
  bench::section(
      "Backend differential (native vs bytecode vs tree, Table II shape)");
  const std::int64_t n = 64;
  const MicroLaunch tree_ml(n);
  const MicroLaunch byte_ml(n);
  const MicroLaunch nat_ml(n);
  const MicroLaunch nat4_ml(n);
  const ir::Counters ct = tree_ml.run(ir::Backend::Tree, 1);
  const ir::Counters cb = byte_ml.run(ir::Backend::Bytecode, 1);
  const ir::Counters cn = nat_ml.run(ir::Backend::Native, 1);
  const ir::Counters cn4 = nat4_ml.run(ir::Backend::Native, 4);
  const auto same = [](const MicroLaunch& a, const MicroLaunch& b) {
    return std::memcmp(a.dC->data(), b.dC->data(), a.dC->size()) == 0;
  };
  const bool buffers_equal = same(nat_ml, byte_ml) && same(nat_ml, tree_ml) &&
                             same(nat_ml, nat4_ml);
  const bool counters_equal = cn == cb && cn == ct && cn == cn4;
  bench::scalar("interp.native_buffers_equal", buffers_equal ? 1 : 0);
  bench::scalar("interp.native_counters_equal", counters_equal ? 1 : 0);
  bench::scalar("interp.native_mads", static_cast<double>(cn.mads));
  bench::scalar("interp.native_flops", static_cast<double>(cn.flops));

  // Program cache is warm for both backends by now (the runs above).
  const double t_byte = min_seconds(5, byte_ml, ir::Backend::Bytecode);
  const double t_native = min_seconds(9, nat_ml, ir::Backend::Native);
  const double speedup = t_byte / t_native;
  trace::gauge_set("micro_interp.speedup_native_over_bytecode", speedup);
  bench::scalar("interp.native_speedup_ge3x", speedup >= 3.0 ? 1 : 0);
  bench::note(strf("buffers_equal=%d counters_equal=%d speedup=%.1fx "
                   "(bytecode %.2f ms, native %.2f ms, single thread)",
                   buffers_equal ? 1 : 0, counters_equal ? 1 : 0, speedup,
                   1e3 * t_byte, 1e3 * t_native));
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): records each benchmark's
// per-iteration real time as a gauge (wall-clock lives in the "metrics"
// section, outside the baseline gate) and runs the differential check.
namespace {

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& r : runs) {
      if (r.error_occurred) continue;
      gemmtune::trace::gauge_set(
          (r.benchmark_name() + ".real_time_ns").c_str(),
          r.GetAdjustedRealTime());
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool native_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--native") {
      native_mode = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  gemmtune::bench::init(native_mode ? "micro_interp_native" : "micro_interp",
                        &argc, argv);
  if (native_mode && !ir::native_toolchain_available()) {
    std::printf("no usable host toolchain; native differential skipped\n");
    return 3;  // harnesses (tools/bench_smoke.sh) treat 3 as "skip"
  }
  if (native_mode) {
    benchmark::RegisterBenchmark("BM_InterpNative", BM_InterpNative)
        ->Arg(32)
        ->Arg(64);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (native_mode) {
    native_differential_check();
  } else {
    differential_check();
  }
  return 0;
}
