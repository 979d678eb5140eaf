// Tests for the native JIT backend's machinery (native.hpp) and the
// LRU-bounded program cache (compile.hpp): emitter determinism, the
// on-disk .so cache round-trip (a warm start needs no compiler at all, and
// a foreign object under a kernel's name is rebuilt), graceful fallback to
// bytecode when no toolchain is usable, read-only cache-dir handling, and
// cache eviction under GEMMTUNE_PROGRAM_CACHE_MAX. The SIMD differentials
// run fuzzed kernels and the real GEMM kernels natively against bytecode.
// Semantic equivalence of the native backend (buffers, counters, error
// parity) lives in vm_test.cpp's three-way differentials and
// fuzz_codegen_test.cpp.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "codegen/gemm_generator.hpp"
#include "codegen/paper_kernels.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/kernel.hpp"
#include "kernelir/native.hpp"
#include "layout/matrix.hpp"
#include "layout/packing.hpp"
#include "simcl/runtime.hpp"
#include "trace/trace.hpp"
#include "tuner/shape.hpp"

namespace gemmtune::ir {
namespace {

// Restores every piece of process-wide state a test may touch: the JIT
// probe/dir, the backend override, the program cache and its cap, and the
// environment knobs.
class NativeTest : public ::testing::Test {
 protected:
  void SetUp() override { reset_all(); }
  void TearDown() override {
    unsetenv("GEMMTUNE_JIT_CXX");
    unsetenv("GEMMTUNE_JIT_CACHE");
    reset_all();
    trace::set_enabled(false);
  }
  static void reset_all() {
    set_jit_cache_dir("");
    reset_native_probe();
    set_backend_override(Backend::Auto);
    set_program_cache_max(0);
    compiled_cache_clear();
  }
};

std::string make_temp_dir() {
  std::string tmpl = ::testing::TempDir() + "native-test-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* d = ::mkdtemp(buf.data());
  EXPECT_NE(d, nullptr);
  return d != nullptr ? d : "";
}

int count_shared_objects(const std::string& dir) {
  int n = 0;
  std::string cmd = "ls " + dir + "/gemmtune-*.so >/dev/null 2>&1";
  if (std::system(cmd.c_str()) == 0) {
    // Count via a shell glob so the test has no directory-walk helper.
    FILE* p = ::popen(("ls " + dir + " | grep -c '\\.so$'").c_str(), "r");
    if (p != nullptr) {
      char line[32] = {0};
      if (std::fgets(line, sizeof line, p) != nullptr) n = std::atoi(line);
      ::pclose(p);
    }
  }
  return n;
}

/// The .so files in `dir`, sorted by name.
std::vector<std::string> shared_objects(const std::string& dir) {
  std::vector<std::string> out;
  FILE* p = ::popen(("ls " + dir + " | grep '\\.so$'").c_str(), "r");
  if (p == nullptr) return out;
  char line[512] = {0};
  while (std::fgets(line, sizeof line, p) != nullptr) {
    std::string name(line);
    while (!name.empty() && name.back() == '\n') name.pop_back();
    out.push_back(dir + "/" + name);
  }
  ::pclose(p);
  return out;
}

/// A small kernel parameterized by `salt` so each value compiles to a
/// distinct cache entry: out[gid] = a[gid] * salt + gid.
Kernel salted_kernel(int salt) {
  const Type t1 = fp(Scalar::F64, 1);
  KernelBuilder b("salted", Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
  const int gid = b.decl_var("gid", i32());
  b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
  b.append(store_global(
      0, b.ref(gid),
      bin(BinOp::FMul, load_global(1, b.ref(gid), t1),
          fconst(static_cast<double>(salt), t1))));
  return b.build();
}

struct LaunchSetup {
  std::vector<simcl::BufferPtr> bufs;
  std::vector<ArgValue> args;
};

LaunchSetup salted_args(int n) {
  LaunchSetup s;
  auto out = std::make_shared<simcl::Buffer>(
      static_cast<std::size_t>(n) * sizeof(double));
  auto a = std::make_shared<simcl::Buffer>(
      static_cast<std::size_t>(n) * sizeof(double));
  for (int j = 0; j < n; ++j) a->as<double>()[j] = 0.5 * j - 1.0;
  s.bufs = {out, a};
  s.args = {ArgValue::of(out), ArgValue::of(a)};
  return s;
}

std::vector<double> run_salted(int salt, Backend be) {
  const Kernel k = salted_kernel(salt);
  LaunchSetup s = salted_args(8);
  launch_with_backend(k, {8, 1}, {4, 1}, s.args, 1, be);
  const double* p = s.bufs[0]->as<double>();
  return std::vector<double>(p, p + 8);
}

std::uint64_t trace_counter(const char* name) {
  const Json m = trace::metrics_json();
  const Json& c = m.at("counters");
  if (!c.contains(name)) return 0;
  return static_cast<std::uint64_t>(c.at(name).as_int());
}

// ---- emitter ---------------------------------------------------------------

TEST_F(NativeTest, EmitterIsDeterministicAndSelfContained) {
  const Kernel k = salted_kernel(3);
  const CompiledKernelPtr prog = compile(k);
  const std::string src1 = emit_native_source(k, *prog);
  const std::string src2 = emit_native_source(k, *prog);
  EXPECT_EQ(src1, src2);
  // The TU must export the versioned entry symbol and include nothing
  // beyond the C standard headers it spells out.
  EXPECT_NE(src1.find(kNativeEntrySymbol), std::string::npos);
  EXPECT_NE(src1.find("extern \"C\""), std::string::npos);
  EXPECT_EQ(src1.find("#include \""), std::string::npos);
}

// ---- JIT + disk cache ------------------------------------------------------

TEST_F(NativeTest, DiskCacheRoundTripSkipsCompilerOnWarmStart) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  const std::string dir = make_temp_dir();
  set_jit_cache_dir(dir);

  const std::vector<double> cold = run_salted(7, Backend::Native);
  EXPECT_EQ(count_shared_objects(dir), 1);

  // Warm start: fresh program cache, *broken* compiler. The cached .so
  // must carry the launch without any fallback.
  compiled_cache_clear();
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  trace::reset();
  trace::set_enabled(true);
  const std::vector<double> warm = run_salted(7, Backend::Native);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);
  EXPECT_GE(trace_counter("interp.native_disk_hits"), 1u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 0u);
}

TEST_F(NativeTest, ForeignObjectUnderAKernelsNameIsRebuilt) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  const std::string dir = make_temp_dir();
  set_jit_cache_dir(dir);
  run_salted(41, Backend::Native);
  const std::vector<std::string> first = shared_objects(dir);
  ASSERT_EQ(first.size(), 1u);
  run_salted(42, Backend::Native);
  std::vector<std::string> both = shared_objects(dir);
  ASSERT_EQ(both.size(), 2u);
  const std::string victim = both[0] == first[0] ? both[1] : both[0];

  // Put kernel 41's object under kernel 42's name (a fresh inode, so no
  // mapping of the old file is reused). The cache name alone must not be
  // trusted: the launch rebuilds and still matches the bytecode result.
  compiled_cache_clear();
  ASSERT_EQ(std::system(("cp " + first[0] + " " + victim + ".tmp && mv " +
                         victim + ".tmp " + victim)
                            .c_str()),
            0);
  trace::reset();
  trace::set_enabled(true);
  EXPECT_EQ(run_salted(42, Backend::Native),
            run_salted(42, Backend::Bytecode));
  EXPECT_EQ(trace_counter("interp.native_stale"), 1u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 1u);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);

  // The rebuilt object now carries its own identity: a warm start loads
  // it without the compiler.
  compiled_cache_clear();
  trace::reset();
  run_salted(42, Backend::Native);
  EXPECT_EQ(trace_counter("interp.native_stale"), 0u);
  EXPECT_EQ(trace_counter("interp.native_compiles"), 0u);
  EXPECT_EQ(trace_counter("interp.native_disk_hits"), 1u);
}

TEST_F(NativeTest, NativeMatchesBytecodeBuffers) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  EXPECT_EQ(run_salted(5, Backend::Native), run_salted(5, Backend::Bytecode));
}

// ---- fallback --------------------------------------------------------------

TEST_F(NativeTest, FallsBackToBytecodeWithoutToolchain) {
  // Simulate a machine with no usable compiler: GEMMTUNE_JIT_CXX is
  // consulted exclusively when set, and this one cannot run.
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  EXPECT_FALSE(native_toolchain_available());

  trace::reset();
  trace::set_enabled(true);
  const std::vector<double> via_native = run_salted(9, Backend::Native);
  EXPECT_EQ(via_native, run_salted(9, Backend::Bytecode));
  EXPECT_GE(trace_counter("interp.native_fallback"), 1u);
}

TEST_F(NativeTest, ReadOnlyCacheDirStillRunsNatively) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  if (::geteuid() == 0) GTEST_SKIP() << "root ignores directory modes";
  const std::string dir = make_temp_dir();
  ASSERT_EQ(::chmod(dir.c_str(), 0555), 0);
  set_jit_cache_dir(dir);
  trace::reset();
  trace::set_enabled(true);
  // The unwritable persistent dir is skipped in favour of the process
  // temp dir; the launch still runs natively (no fallback) and nothing
  // lands in the read-only directory.
  const std::vector<double> got = run_salted(11, Backend::Native);
  EXPECT_EQ(trace_counter("interp.native_fallback"), 0u);
  EXPECT_EQ(count_shared_objects(dir), 0);
  ::chmod(dir.c_str(), 0755);
  EXPECT_EQ(got, run_salted(11, Backend::Bytecode));
}

TEST_F(NativeTest, FailureIsStickyPerKernel) {
  setenv("GEMMTUNE_JIT_CXX", "/nonexistent-compiler", 1);
  reset_native_probe();
  const Kernel k = salted_kernel(13);
  std::string why1, why2;
  EXPECT_EQ(get_or_compile_native(k, &why1), nullptr);
  EXPECT_FALSE(why1.empty());
  // The second call answers from the cache without re-probing.
  EXPECT_EQ(get_or_compile_native(k, &why2), nullptr);
  EXPECT_EQ(why2, "native compilation previously failed");
}

// ---- SIMD emitter: three-way differential over fuzzed shapes ---------------

/// One randomized launch shape for the SIMD differential: precision,
/// vector width, work-group geometry and loop trip count all vary.
struct FuzzShape {
  Scalar s = Scalar::F64;
  int w = 2;       ///< vector lanes of the accumulator / global accesses
  int local = 4;   ///< work-group size
  int groups = 2;  ///< number of work-groups
  int trip = 3;    ///< mad-loop trip count
  std::string summary() const {
    return std::string(s == Scalar::F64 ? "f64" : "f32") + " w=" +
           std::to_string(w) + " local=" + std::to_string(local) +
           " groups=" + std::to_string(groups) +
           " trip=" + std::to_string(trip);
  }
};

/// A kernel touching every SIMD-emitted path: local staging + barrier,
/// private staging at constant and per-item indices, the fused
/// splat(load_private) * load_global + acc mad form, a divergent (masked)
/// if, select, and a vector store — all at the shape's width and
/// precision.
Kernel fuzzed_kernel(const FuzzShape& f) {
  const Type t1 = fp(f.s, 1);
  const Type tw = fp(f.s, f.w);
  KernelBuilder b("fuzz", f.s);
  b.add_arg("out", ArgKind::GlobalPtr, f.s);
  b.add_arg("a", ArgKind::GlobalConstPtr, f.s);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  b.add_arg("alpha", ArgKind::Float, f.s);
  const int gid = b.decl_var("gid", i32());
  const int lx = b.decl_var("lx", i32());
  const int i = b.decl_var("i", i32());
  const int acc = b.decl_var("acc", tw);
  const int t = b.decl_var("t", t1);
  const int lm = b.decl_array("Lm", f.s, f.local, AddrSpace::Local);
  const int pa = b.decl_array("P", f.s, 2, AddrSpace::Private);
  const int qa = b.decl_array("Q", f.s, 4, AddrSpace::Private);
  b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  b.append(store_local(lm, b.ref(lx), load_global(1, b.ref(gid), t1)));
  b.append(barrier());
  b.append(assign(t, load_local(lm,
                                bin(BinOp::Mod, b.ref(lx) + 1,
                                    iconst(f.local)),
                                t1)));
  b.append(store_private(pa, iconst(0), b.ref(t)));
  b.append(store_private(qa, bin(BinOp::Mod, b.ref(lx), iconst(4)), b.ref(t)));
  b.append(assign(t, bin(BinOp::FAdd, b.ref(t),
                         load_private(qa, bin(BinOp::Mod, b.ref(lx), iconst(4)),
                                      t1))));
  b.append(assign(acc, splat(arg_ref(3, t1), f.w)));
  b.append(for_loop(
      i, iconst(0), arg_ref(2, i32()), iconst(1),
      {
          assign(acc, mad(splat(load_private(pa, iconst(0), t1), f.w),
                          load_global(1, bin(BinOp::Mul, b.ref(gid),
                                             iconst(f.w)),
                                      tw),
                          b.ref(acc))),
          if_then(bin(BinOp::Lt, bin(BinOp::Mod, b.ref(gid), iconst(3)),
                      iconst(1)),
                  {assign(t, bin(BinOp::FMul, b.ref(t),
                                 fconst(1.5, t1)))}),
      }));
  b.append(store_global(
      0, bin(BinOp::Mul, b.ref(gid), iconst(f.w)),
      select(bin(BinOp::Lt, b.ref(gid), iconst(f.groups * f.local / 2)),
             b.ref(acc),
             bin(BinOp::FAdd, b.ref(acc), splat(b.ref(t), f.w)))));
  return b.build();
}

struct FuzzResult {
  std::vector<std::uint8_t> bytes;
  Counters counters;
};

FuzzResult run_fuzzed(const FuzzShape& f, Backend be) {
  const Kernel k = fuzzed_kernel(f);
  const std::size_t es = f.s == Scalar::F64 ? 8 : 4;
  const int nitems = f.groups * f.local;
  const std::size_t elems = static_cast<std::size_t>(nitems) *
                            static_cast<std::size_t>(f.w);
  auto out = std::make_shared<simcl::Buffer>(elems * es);
  auto a = std::make_shared<simcl::Buffer>(elems * es);
  for (std::size_t j = 0; j < elems; ++j) {
    const double v = 0.23 * static_cast<double>(j) - 2.75;
    if (f.s == Scalar::F64) {
      a->as<double>()[j] = v;
    } else {
      a->as<float>()[j] = static_cast<float>(v);
    }
  }
  const std::vector<ArgValue> args = {ArgValue::of(out), ArgValue::of(a),
                                      ArgValue::of_int(f.trip),
                                      ArgValue::of_float(1.25)};
  FuzzResult r;
  r.counters = launch_with_backend(k, {nitems, 1}, {f.local, 1}, args, 1, be);
  for (const auto& buf : {out, a}) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(buf->data());
    r.bytes.insert(r.bytes.end(), p, p + buf->size());
  }
  return r;
}

TEST_F(NativeTest, SimdDifferentialAcrossFuzzedShapes) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  // Eight fuzzed shapes, alternating precision and cycling the vector
  // width so every (precision, width) pair appears, and cycling the
  // work-group size — 12, 24 and 40 are above the host vector width and
  // not a multiple of it, so the scalar tails run; group count and trip
  // count are drawn from the seeded stream. Buffers must come back
  // byte-identical (ULP-exact, including f32 rounding inside the vector
  // bodies) between bytecode and native, with equal counters.
  static const int kWidths[] = {1, 2, 4, 8};
  static const int kLocals[] = {2, 4, 8, 12, 24, 40};
  static const int kTrips[] = {0, 1, 3, 7};
  Rng rng(0x51D5);
  for (int n = 0; n < 8; ++n) {
    FuzzShape f;
    f.s = (n % 2) != 0 ? Scalar::F32 : Scalar::F64;
    f.w = kWidths[n % 4];
    f.local = kLocals[n % 6];
    f.groups = 1 + static_cast<int>(rng.next_below(3));
    f.trip = kTrips[rng.next_below(4)];
    const FuzzResult byte = run_fuzzed(f, Backend::Bytecode);
    const FuzzResult simd = run_fuzzed(f, Backend::Native);
    EXPECT_EQ(byte.bytes, simd.bytes)
        << "SIMD-native divergence: " << f.summary();
    EXPECT_EQ(byte.counters, simd.counters)
        << "SIMD-native counter divergence: " << f.summary();
  }
}

// ---- real GEMM kernels: SIMD-native against bytecode -----------------------

/// Launches `k` through `be` on a copy of `bufs` and returns every
/// buffer's bytes plus the counters. A native launch must really run the
/// JIT object, not fall back to bytecode.
FuzzResult run_gemm(const Kernel& k, const codegen::LaunchGeometry& geo,
                    const std::vector<std::vector<std::uint8_t>>& bufs,
                    const std::vector<ArgValue>& scalars, Backend be) {
  if (be == Backend::Native) {
    std::string why;
    EXPECT_NE(get_or_compile_native(k, &why), nullptr) << why;
  }
  std::vector<ArgValue> args;
  std::vector<simcl::BufferPtr> owned;
  for (const auto& b : bufs) {
    owned.push_back(std::make_shared<simcl::Buffer>(b.size()));
    std::memcpy(owned.back()->data(), b.data(), b.size());
    args.push_back(ArgValue::of(owned.back()));
  }
  args.insert(args.end(), scalars.begin(), scalars.end());
  FuzzResult r;
  r.counters = launch_with_backend(k, geo.global, geo.local, args, 1, be);
  for (const auto& b : owned) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(b->data());
    r.bytes.insert(r.bytes.end(), p, p + b->size());
  }
  return r;
}

/// `n` random elements of the precision's width, as raw bytes.
std::vector<std::uint8_t> random_elems(Rng& rng, std::size_t n, bool f32) {
  std::vector<std::uint8_t> out(n * (f32 ? 4 : 8));
  for (std::size_t i = 0; i < n; ++i) {
    const double v = rng.next_double(-1.0, 1.0);
    if (f32) {
      const auto x = static_cast<float>(v);
      std::memcpy(&out[i * 4], &x, 4);
    } else {
      std::memcpy(&out[i * 8], &v, 8);
    }
  }
  return out;
}

TEST_F(NativeTest, RealGemmKernelsMatchBytecode) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  using codegen::Precision;
  Rng rng(0x6E77);
  // The packed Table II kernels the GEMM path launches for Tahiti and
  // SandyBridge, at twice their work-group tile in every dimension.
  for (const auto dev : {simcl::DeviceId::Tahiti, simcl::DeviceId::SandyBridge})
    for (const auto prec : {Precision::SP, Precision::DP}) {
      const codegen::KernelParams p = codegen::table2_entry(dev, prec).params;
      const Kernel k = codegen::generate_gemm_kernel(p);
      const std::int64_t Mp = 2 * p.Mwg, Np = 2 * p.Nwg, Kp = 2 * p.Kwg;
      const bool f32 = prec == Precision::SP;
      const std::vector<std::vector<std::uint8_t>> bufs = {
          random_elems(rng, static_cast<std::size_t>(Mp * Np), f32),
          random_elems(rng, static_cast<std::size_t>(Mp * Kp), f32),
          random_elems(rng, static_cast<std::size_t>(Kp * Np), f32)};
      const std::vector<ArgValue> scalars = {
          ArgValue::of_int(Mp), ArgValue::of_int(Np), ArgValue::of_int(Kp),
          ArgValue::of_float(0.75), ArgValue::of_float(-0.5)};
      const auto geo = codegen::launch_geometry(p, Mp, Np);
      const std::string what = k.name + " " + simcl::to_string(dev);
      const FuzzResult byte =
          run_gemm(k, geo, bufs, scalars, Backend::Bytecode);
      const FuzzResult simd = run_gemm(k, geo, bufs, scalars, Backend::Native);
      EXPECT_EQ(byte.bytes, simd.bytes) << what;
      EXPECT_EQ(byte.counters, simd.counters) << what;
    }
  // The guarded direct kernel (vw = 1, fringe ifs) on a shape that is a
  // multiple of no tile.
  const codegen::KernelParams q = tuner::direct_variant(
      codegen::table2_entry(simcl::DeviceId::Tahiti, Precision::SP).params);
  const Kernel k = codegen::generate_direct_gemm_kernel(q, Transpose::No,
                                                        Transpose::No, true);
  const std::int64_t M = 131, N = 97, K = 75;
  const PackedExtents ext = packed_extents(M, N, K, q.Mwg, q.Nwg, q.Kwg);
  const std::vector<std::vector<std::uint8_t>> bufs = {
      random_elems(rng, static_cast<std::size_t>(M * N), true),
      random_elems(rng, static_cast<std::size_t>(M * K), true),
      random_elems(rng, static_cast<std::size_t>(K * N), true)};
  const std::vector<ArgValue> scalars = {
      ArgValue::of_int(M),       ArgValue::of_int(N),
      ArgValue::of_int(K),       ArgValue::of_int(M),
      ArgValue::of_int(K),       ArgValue::of_int(M),
      ArgValue::of_float(1.25),  ArgValue::of_float(0.5)};
  const auto geo = codegen::launch_geometry(q, ext.Mp, ext.Np);
  const FuzzResult byte = run_gemm(k, geo, bufs, scalars, Backend::Bytecode);
  const FuzzResult simd = run_gemm(k, geo, bufs, scalars, Backend::Native);
  EXPECT_EQ(byte.bytes, simd.bytes) << k.name;
  EXPECT_EQ(byte.counters, simd.counters) << k.name;
}

// ---- toolchain probe caching -----------------------------------------------

TEST_F(NativeTest, ToolchainProbeIsCachedProcessWide) {
  if (!native_toolchain_available()) GTEST_SKIP() << "no host toolchain";
  trace::reset();
  trace::set_enabled(true);
  reset_native_probe();
  run_salted(21, Backend::Native);
  const std::uint64_t probes = trace_counter("interp.toolchain_probe");
  EXPECT_GE(probes, 1u);
  // Three more cold compiles (fresh program cache, fresh disk cache, so
  // the compiler genuinely runs each time) must not probe again.
  for (int salt = 22; salt <= 24; ++salt) {
    compiled_cache_clear();
    set_jit_cache_dir(make_temp_dir());
    run_salted(salt, Backend::Native);
  }
  EXPECT_GE(trace_counter("interp.native_compiles"), 3u);
  EXPECT_EQ(trace_counter("interp.toolchain_probe"), probes);
}

// ---- LRU-bounded program cache ---------------------------------------------

TEST_F(NativeTest, ProgramCacheEvictsLeastRecentlyUsed) {
  set_program_cache_max(8);
  trace::reset();
  trace::set_enabled(true);
  // A fuzzing-style stream of distinct kernels must not grow the cache
  // beyond the cap no matter how many shapes flow through.
  for (int salt = 1; salt <= 300; ++salt) {
    run_salted(salt, Backend::Bytecode);
    ASSERT_LE(compiled_cache_size(), 8u) << "salt " << salt;
  }
  EXPECT_EQ(compiled_cache_size(), 8u);
  EXPECT_GE(trace_counter("interp.cache_evict"), 292u);

  // Recency: re-touch salt 300 (the newest), then push 7 fresh kernels —
  // 300 must survive; salt 294 (the oldest of the final eight) must not.
  run_salted(300, Backend::Bytecode);
  const std::uint64_t misses_before = trace_counter("interp.cache_miss");
  for (int salt = 301; salt <= 307; ++salt)
    run_salted(salt, Backend::Bytecode);
  run_salted(300, Backend::Bytecode);  // still cached -> no new miss
  EXPECT_EQ(trace_counter("interp.cache_miss"), misses_before + 7);
  run_salted(294, Backend::Bytecode);  // evicted -> recompiles
  EXPECT_EQ(trace_counter("interp.cache_miss"), misses_before + 8);
}

TEST_F(NativeTest, ShrinkingCapEvictsImmediately) {
  set_program_cache_max(16);
  for (int salt = 1; salt <= 12; ++salt)
    run_salted(salt, Backend::Bytecode);
  EXPECT_EQ(compiled_cache_size(), 12u);
  set_program_cache_max(4);
  EXPECT_LE(compiled_cache_size(), 4u);
}

}  // namespace
}  // namespace gemmtune::ir
