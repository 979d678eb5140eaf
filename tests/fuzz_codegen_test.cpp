// Randomized property tests over the code generator: sample random valid
// parameter sets from the full space and check, for each,
//  (1) the generated kernel matches the host reference on random data,
//  (2) parse(emit(kernel)) executes bit-identically (text <-> semantics),
//  (3) KernelParams survives the JSON round trip.
// Deterministic: everything derives from fixed seeds.
#include <gtest/gtest.h>

#include <cstring>

#include "blas/hostblas.hpp"
#include "clfront/parser.hpp"
#include "codegen/gemm_generator.hpp"
#include "common/rng.hpp"
#include "kernelir/emit.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "layout/packing.hpp"
#include "native_prebuild.hpp"
#include "simcl/device_registry.hpp"

namespace gemmtune {
namespace {

using codegen::Algorithm;
using codegen::GemmKernelArgs;
using codegen::KernelParams;
using codegen::Precision;

template <typename C>
auto pick(Rng& rng, const C& values) {
  return values[static_cast<std::size_t>(
      rng.next_below(static_cast<std::uint64_t>(values.size())))];
}

/// Samples one random parameter set; may be invalid (caller validates).
KernelParams random_params(Rng& rng) {
  static const std::vector<int> wg_sizes = {8, 16, 24, 32};
  static const std::vector<int> k_sizes = {4, 8, 12, 16};
  static const std::vector<int> dims = {2, 4, 8};
  static const std::vector<int> kwis = {1, 2, 4};
  static const std::vector<int> vws = {1, 2, 4};
  static const std::vector<BlockLayout> layouts = {
      BlockLayout::RowMajor, BlockLayout::CBL, BlockLayout::RBL};
  static const std::vector<Algorithm> algos = {Algorithm::BA, Algorithm::PL,
                                               Algorithm::DB};
  KernelParams p;
  p.prec = rng.next_below(2) ? Precision::SP : Precision::DP;
  p.Mwg = pick(rng, wg_sizes);
  p.Nwg = pick(rng, wg_sizes);
  p.Kwg = pick(rng, k_sizes);
  p.MdimC = pick(rng, dims);
  p.NdimC = pick(rng, dims);
  p.MdimA = pick(rng, dims);
  p.NdimB = pick(rng, dims);
  p.Kwi = pick(rng, kwis);
  p.vw = pick(rng, vws);
  p.stride_m = rng.next_below(2) != 0;
  p.stride_n = rng.next_below(2) != 0;
  p.share_a = rng.next_below(2) != 0;
  p.share_b = rng.next_below(2) != 0;
  p.layout_a = pick(rng, layouts);
  p.layout_b = pick(rng, layouts);
  p.algo = pick(rng, algos);
  return p;
}

/// Fuzzed shapes that also run the native JIT leg. Each distinct kernel
/// is a cold host-compiler build of ~20 s, so only the first few shapes
/// run it — enough to catch an emitter divergence across the random
/// parameter space without blowing up the suite's runtime.
constexpr int kNativeShapes = 8;

/// Runs both the generated kernel and its emit->parse round trip on the
/// same random data; checks correctness and equivalence, and with
/// `native` the native JIT against the bytecode VM too.
template <typename T>
void check_kernel_properties(const KernelParams& p, std::uint64_t seed,
                             bool native) {
  Rng rng(seed);
  const index_t M = 2 * p.Mwg, N = 2 * p.Nwg, K = 2 * p.Kwg;
  Matrix<T> A(M, K), B(K, N), C(M, N);
  A.fill_random(rng);
  B.fill_random(rng);
  C.fill_random(rng);
  Matrix<T> Cref = C;
  hostblas::gemm_naive(Transpose::No, Transpose::No, M, N, K, T(1.5), A, B,
                       T(-0.5), Cref);

  const ir::Kernel k1 = codegen::generate_gemm_kernel(p);
  const ir::Kernel k2 = clfront::parse_kernel(ir::emit_opencl(k1));

  auto run = [&](const ir::Kernel& k, ir::Backend backend,
                 ir::Counters* counters) {
    auto abuf = pack_a(A, Transpose::No, M, K, M, K, p.layout_a, p.Mwg,
                       p.Kwg);
    auto bbuf = pack_b(B, Transpose::No, K, N, K, N, p.layout_b, p.Kwg,
                       p.Nwg);
    auto cbuf = pack_c(C, M, N, M, N);
    auto dA = std::make_shared<simcl::Buffer>(abuf.size() * sizeof(T));
    auto dB = std::make_shared<simcl::Buffer>(bbuf.size() * sizeof(T));
    auto dC = std::make_shared<simcl::Buffer>(cbuf.size() * sizeof(T));
    std::memcpy(dA->data(), abuf.data(), abuf.size() * sizeof(T));
    std::memcpy(dB->data(), bbuf.data(), bbuf.size() * sizeof(T));
    std::memcpy(dC->data(), cbuf.data(), cbuf.size() * sizeof(T));
    const auto geo = codegen::launch_geometry(p, M, N);
    std::vector<ir::ArgValue> args(8);
    args[GemmKernelArgs::C] = ir::ArgValue::of(dC);
    args[GemmKernelArgs::A] = ir::ArgValue::of(dA);
    args[GemmKernelArgs::B] = ir::ArgValue::of(dB);
    args[GemmKernelArgs::M] = ir::ArgValue::of_int(M);
    args[GemmKernelArgs::N] = ir::ArgValue::of_int(N);
    args[GemmKernelArgs::K] = ir::ArgValue::of_int(K);
    args[GemmKernelArgs::alpha] = ir::ArgValue::of_float(1.5);
    args[GemmKernelArgs::beta] = ir::ArgValue::of_float(-0.5);
    const ir::Counters c =
        ir::launch_with_backend(k, geo.global, geo.local, args, 0, backend);
    if (counters) *counters = c;
    std::vector<T> out(dC->template count<T>());
    std::memcpy(out.data(), dC->data(), dC->size());
    return out;
  };

  ir::Counters c_byte, c_tree;
  const auto out1 = run(k1, ir::Backend::Bytecode, &c_byte);
  const auto out2 = run(k2, ir::Backend::Bytecode, nullptr);
  EXPECT_EQ(out1, out2) << "round-trip divergence: " << p.summary();

  // Differential check: the tree-walking reference backend must produce
  // bit-identical buffers and counters for the same launch.
  const auto out_tree = run(k1, ir::Backend::Tree, &c_tree);
  EXPECT_EQ(out1, out_tree) << "backend divergence: " << p.summary();
  EXPECT_EQ(c_byte, c_tree) << "counter divergence: " << p.summary();

  if (native) {
    ir::Counters c_native;
    const auto out_native = run(k1, ir::Backend::Native, &c_native);
    EXPECT_EQ(out1, out_native) << "native divergence: " << p.summary();
    EXPECT_EQ(c_byte, c_native)
        << "native counter divergence: " << p.summary();
  }

  Matrix<T> Cgot(M, N);
  unpack_c(out1, M, N, Cgot, M, N);
  EXPECT_LE(max_abs_diff(Cgot, Cref), hostblas::gemm_tolerance<T>(K))
      << p.summary();
}

TEST(FuzzCodegen, RandomValidParameterSets) {
  const auto& dev = simcl::device_spec(simcl::DeviceId::Tahiti);
  Rng rng(0xFACADE);
  std::vector<KernelParams> params;
  int rejected = 0;
  while (params.size() < 60) {
    const KernelParams p = random_params(rng);
    if (validate(p, dev)) {
      ++rejected;
      ASSERT_LT(rejected, 5000) << "sampler cannot find valid sets";
      continue;
    }
    params.push_back(p);
  }
  // Build the native leg's objects concurrently up front (the compiler
  // runs outside the JIT's lock); the checks below then load them from
  // the program cache.
  const bool native = ir::native_toolchain_available();
  if (native) {
    std::vector<ir::Kernel> kernels;
    for (int i = 0; i < kNativeShapes; ++i)
      kernels.push_back(codegen::generate_gemm_kernel(
          params[static_cast<std::size_t>(i)]));
    prebuild_native(kernels);
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto tested = static_cast<unsigned>(i);
    const bool run_native =
        native && i < static_cast<std::size_t>(kNativeShapes);
    if (params[i].prec == Precision::DP) {
      check_kernel_properties<double>(params[i], 0x1000u + tested,
                                      run_native);
    } else {
      check_kernel_properties<float>(params[i], 0x2000u + tested,
                                     run_native);
    }
  }
  // The space must contain both valid and invalid points.
  EXPECT_GT(rejected, 0);
}

TEST(FuzzCodegen, JsonRoundTripForRandomParams) {
  Rng rng(0xBEEF);
  for (int i = 0; i < 500; ++i) {
    const KernelParams p = random_params(rng);
    const KernelParams back = KernelParams::from_json(
        Json::parse(p.to_json().dump(i % 3)));
    EXPECT_EQ(p, back) << p.summary();
    // key() must be injective over distinct parameter sets (round-trip
    // through the summary string is not required, but keys must match).
    EXPECT_EQ(p.key(), back.key());
  }
}

TEST(FuzzCodegen, ValidationIsConsistentWithGeneration) {
  // Anything validate() accepts must generate and launch without throwing.
  const auto& dev = simcl::device_spec(simcl::DeviceId::Fermi);
  Rng rng(0xC0DE);
  int tested = 0;
  while (tested < 200) {
    const KernelParams p = random_params(rng);
    if (validate(p, dev)) continue;
    EXPECT_NO_THROW({
      const ir::Kernel k = codegen::generate_gemm_kernel(p);
      (void)ir::emit_opencl(k);
    }) << p.summary();
    ++tested;
  }
}

}  // namespace
}  // namespace gemmtune
