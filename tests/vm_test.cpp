// Differential tests for the bytecode interpreter backend (compile.hpp /
// vm.hpp) and the native JIT backend (native.hpp) against the tree-walking
// reference backend: identical buffers and counters for well-formed
// launches at any thread count, identical error messages (modulo the
// source-location prefix) for malformed ones, backend resolution
// precedence, and the process-wide compiled-program cache. The native legs
// run whenever a host toolchain answers the probe (CI always has one);
// without a toolchain they are skipped, not failed — that machine's
// fallback behaviour has its own test in native_test.cpp.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/kernel.hpp"
#include "kernelir/native.hpp"
#include "simcl/runtime.hpp"

namespace gemmtune::ir {
namespace {

simcl::BufferPtr make_buffer(std::size_t bytes) {
  return std::make_shared<simcl::Buffer>(bytes);
}

// Error::what() is "<file>:<line>: <message>"; the backends raise from
// different source files, so parity is on the stripped message.
std::string strip_loc(const std::string& s) {
  const auto pos = s.find(": ");
  return pos == std::string::npos ? s : s.substr(pos + 2);
}

/// Builds fresh argument buffers for one launch (runs must not share
/// writable state) and returns the args; buffers land in `bufs`.
using ArgFactory =
    std::function<std::vector<ArgValue>(std::vector<simcl::BufferPtr>*)>;

struct RunResult {
  bool threw = false;
  std::string message;
  Counters counters;
  std::vector<std::uint8_t> bytes;  // all argument buffers, concatenated
};

RunResult run_one(const Kernel& k, std::array<std::int64_t, 2> global,
                  std::array<std::int64_t, 2> local, const ArgFactory& make,
                  Backend backend, int threads) {
  std::vector<simcl::BufferPtr> bufs;
  const std::vector<ArgValue> args = make(&bufs);
  RunResult r;
  try {
    r.counters = launch_with_backend(k, global, local, args, threads, backend);
  } catch (const Error& e) {
    r.threw = true;
    r.message = strip_loc(e.what());
  }
  for (const auto& b : bufs) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(b->data());
    r.bytes.insert(r.bytes.end(), p, p + b->size());
  }
  return r;
}

/// Runs tree(1 thread), bytecode(1 thread), bytecode(4 threads) — plus
/// native(1) and native(4) when a host toolchain is available — and checks
/// the differential contract. Buffer contents after a throw are
/// unspecified, so they are only compared on success.
void expect_equivalent(const Kernel& k, std::array<std::int64_t, 2> global,
                       std::array<std::int64_t, 2> local,
                       const ArgFactory& make) {
  const RunResult tree = run_one(k, global, local, make, Backend::Tree, 1);
  const RunResult byte1 =
      run_one(k, global, local, make, Backend::Bytecode, 1);
  const RunResult byte4 =
      run_one(k, global, local, make, Backend::Bytecode, 4);
  EXPECT_EQ(tree.threw, byte1.threw) << k.name;
  EXPECT_EQ(tree.message, byte1.message) << k.name;
  EXPECT_EQ(byte1.threw, byte4.threw) << k.name;
  EXPECT_EQ(byte1.message, byte4.message) << k.name;
  if (!tree.threw && !byte1.threw) {
    EXPECT_EQ(tree.bytes, byte1.bytes) << k.name;
    EXPECT_EQ(tree.counters, byte1.counters) << k.name;
    EXPECT_EQ(byte1.bytes, byte4.bytes) << k.name;
    EXPECT_EQ(byte1.counters, byte4.counters) << k.name;
  }
  if (!native_toolchain_available()) return;
  const RunResult nat1 = run_one(k, global, local, make, Backend::Native, 1);
  const RunResult nat4 = run_one(k, global, local, make, Backend::Native, 4);
  EXPECT_EQ(tree.threw, nat1.threw) << k.name << " (native)";
  EXPECT_EQ(tree.message, nat1.message) << k.name << " (native)";
  EXPECT_EQ(nat1.threw, nat4.threw) << k.name << " (native)";
  EXPECT_EQ(nat1.message, nat4.message) << k.name << " (native)";
  if (!tree.threw && !nat1.threw) {
    EXPECT_EQ(tree.bytes, nat1.bytes) << k.name << " (native)";
    EXPECT_EQ(tree.counters, nat1.counters) << k.name << " (native)";
    EXPECT_EQ(nat1.bytes, nat4.bytes) << k.name << " (native)";
    EXPECT_EQ(nat1.counters, nat4.counters) << k.name << " (native)";
  }
}

// A kernel exercising most of the instruction surface: builtins, local
// staging + barrier, private staging, a uniform loop with an invariant
// subexpression (hoisting), varying div/mod with nonzero divisors, a
// divergent if, select with both uniform and varying conditions, splat /
// lane, and vector arithmetic.
Kernel stress_kernel(Scalar s) {
  const Type t1 = fp(s, 1);
  const Type t2 = fp(s, 2);
  KernelBuilder b(s == Scalar::F64 ? "stress64" : "stress32", s);
  b.add_arg("out", ArgKind::GlobalPtr, s);
  b.add_arg("a", ArgKind::GlobalConstPtr, s);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  b.add_arg("alpha", ArgKind::Float, s);
  const int gid = b.decl_var("gid", i32());
  const int lx = b.decl_var("lx", i32());
  const int i = b.decl_var("i", i32());
  const int q = b.decl_var("q", i32());
  const int acc = b.decl_var("acc", t2);
  const int t = b.decl_var("t", t1);
  const int lm = b.decl_array("Lm", s, 8, AddrSpace::Local);
  const int pa = b.decl_array("P", s, 4, AddrSpace::Private);
  b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
  b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
  b.append(store_local(lm, b.ref(lx), load_global(1, b.ref(gid), t1)));
  b.append(barrier());
  b.append(assign(t, load_local(lm, bin(BinOp::Mod, b.ref(lx) + 1, iconst(4)),
                                t1)));
  b.append(store_private(pa, iconst(0), b.ref(t)));
  b.append(assign(acc, splat(arg_ref(3, t1), 2)));
  b.append(for_loop(
      i, iconst(0), arg_ref(2, i32()), iconst(1),
      {
          // splat(load_private(...)) matches the fused SplatLaneP form.
          assign(acc, mad(splat(load_private(pa, iconst(0), t1), 2),
                          load_global(1, bin(BinOp::Mul, b.ref(gid),
                                             iconst(2)),
                                      t2),
                          b.ref(acc))),
          if_then(bin(BinOp::Lt, b.ref(i), iconst(2)),
                  {assign(t, bin(BinOp::FMul, b.ref(t),
                                 fconst(1.5, t1)))}),
      }));
  // Varying division/modulo with a strictly positive divisor.
  b.append(assign(q, bin(BinOp::Add,
                         bin(BinOp::Div, b.ref(gid), b.ref(lx) + 1),
                         bin(BinOp::Mod, b.ref(gid), b.ref(lx) + 1))));
  b.append(if_then(bin(BinOp::Lt, bin(BinOp::Mod, b.ref(q), iconst(2)),
                       iconst(1)),
                   {assign(acc, bin(BinOp::FAdd, b.ref(acc),
                                    splat(b.ref(t), 2)))}));
  b.append(store_global(
      0, bin(BinOp::Mul, b.ref(gid), iconst(2)),
      select(bin(BinOp::Lt, b.ref(gid), iconst(6)), b.ref(acc),
             bin(BinOp::FAdd, b.ref(acc), b.ref(acc)))));
  return b.build();
}

ArgFactory stress_args(Scalar s, int n_items, int trip) {
  const std::size_t es = s == Scalar::F64 ? 8 : 4;
  return [=](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(static_cast<std::size_t>(2 * n_items) * es);
    auto a = make_buffer(static_cast<std::size_t>(2 * n_items) * es);
    for (int j = 0; j < 2 * n_items; ++j) {
      if (s == Scalar::F64) {
        a->as<double>()[j] = 0.25 * j - 3.0;
      } else {
        a->as<float>()[j] = 0.25f * static_cast<float>(j) - 3.0f;
      }
    }
    bufs->push_back(out);
    bufs->push_back(a);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of(a),
                                 ArgValue::of_int(trip),
                                 ArgValue::of_float(1.25)};
  };
}

TEST(VmDifferential, StressKernelBothPrecisions) {
  for (const Scalar s : {Scalar::F64, Scalar::F32}) {
    const Kernel k = stress_kernel(s);
    expect_equivalent(k, {8, 1}, {4, 1}, stress_args(s, 8, 3));
    // Zero-trip loop and a single work-group.
    expect_equivalent(k, {4, 1}, {4, 1}, stress_args(s, 4, 0));
  }
}

TEST(VmDifferential, ManyGroupsThreadInvariance) {
  const Kernel k = stress_kernel(Scalar::F64);
  // 16 groups spread over 1 / 3 / 8 threads must be byte-identical.
  const auto make = stress_args(Scalar::F64, 64, 5);
  const RunResult r1 = run_one(k, {64, 1}, {4, 1}, make, Backend::Bytecode, 1);
  const RunResult r3 = run_one(k, {64, 1}, {4, 1}, make, Backend::Bytecode, 3);
  const RunResult r8 = run_one(k, {64, 1}, {4, 1}, make, Backend::Bytecode, 8);
  ASSERT_FALSE(r1.threw);
  EXPECT_EQ(r1.bytes, r3.bytes);
  EXPECT_EQ(r1.counters, r3.counters);
  EXPECT_EQ(r1.bytes, r8.bytes);
  EXPECT_EQ(r1.counters, r8.counters);
}

// ---- error-message parity --------------------------------------------------

// Each case is a malformed kernel or launch; both backends must throw the
// same message. Single-item or uniform faults keep the reported instance
// deterministic.

TEST(VmErrors, LaunchValidationParity) {
  const Kernel k = stress_kernel(Scalar::F64);
  const auto make = stress_args(Scalar::F64, 8, 1);
  expect_equivalent(k, {8, 1}, {0, 1}, make);   // empty work-group
  expect_equivalent(k, {0, 1}, {4, 1}, make);   // empty NDRange
  expect_equivalent(k, {6, 1}, {4, 1}, make);   // not a multiple
  // Argument count mismatch.
  expect_equivalent(k, {8, 1}, {4, 1}, [](std::vector<simcl::BufferPtr>*) {
    return std::vector<ArgValue>{ArgValue::of_int(1)};
  });
  // Kind mismatch: scalar where a buffer is expected.
  expect_equivalent(k, {8, 1}, {4, 1},
                    [](std::vector<simcl::BufferPtr>* bufs) {
                      auto buf = make_buffer(64);
                      bufs->push_back(buf);
                      return std::vector<ArgValue>{
                          ArgValue::of_int(0), ArgValue::of(buf),
                          ArgValue::of_int(1), ArgValue::of_float(1.0)};
                    });
}

TEST(VmErrors, ReqdWorkGroupSizeParity) {
  KernelBuilder b("wg", Scalar::F32);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F32);
  b.set_reqd_local(4, 1);
  b.append(store_global(0, builtin(BuiltinFn::GlobalId, 0),
                        fconst(1.0, fp(Scalar::F32, 1))));
  const Kernel k = b.build();
  const auto make = [](std::vector<simcl::BufferPtr>* bufs) {
    auto buf = make_buffer(64);
    bufs->push_back(buf);
    return std::vector<ArgValue>{ArgValue::of(buf)};
  };
  expect_equivalent(k, {4, 1}, {2, 1}, make);
  expect_equivalent(k, {4, 1}, {4, 1}, make);  // and the passing shape
}

// Helper: single-item kernel writing out[0], for runtime-fault cases.
ArgFactory one_out(std::size_t out_bytes) {
  return [=](std::vector<simcl::BufferPtr>* bufs) {
    auto out = make_buffer(out_bytes);
    bufs->push_back(out);
    return std::vector<ArgValue>{ArgValue::of(out), ArgValue::of_int(0)};
  };
}

KernelBuilder one_item_builder(const char* name) {
  KernelBuilder b(name, Scalar::F64);
  b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
  b.add_arg("n", ArgKind::Int, Scalar::I32);
  return b;
}

TEST(VmErrors, DivModByZeroParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Uniform division by a zero scalar argument.
    KernelBuilder b = one_item_builder("udiv0");
    const int q = b.decl_var("q", i32());
    b.append(assign(q, bin(BinOp::Div, iconst(4), arg_ref(1, i32()))));
    b.append(store_global(0, b.ref(q), fconst(1.0, t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Varying modulo: gid % n with n = 0.
    KernelBuilder b = one_item_builder("vmod0");
    const int q = b.decl_var("q", i32());
    b.append(assign(q, bin(BinOp::Mod, builtin(BuiltinFn::GlobalId, 0),
                           arg_ref(1, i32()))));
    b.append(store_global(0, b.ref(q), fconst(1.0, t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
}

TEST(VmErrors, GlobalOutOfRangeParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Constant store index beyond the 8-element buffer.
    KernelBuilder b = one_item_builder("gstore");
    b.append(store_global(0, iconst(100), fconst(1.0, t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Runtime load index: out[0] = out[n] with n = 99 (message says load).
    KernelBuilder b = one_item_builder("gload");
    b.append(store_global(0, iconst(0),
                          load_global(0, arg_ref(1, i32()), t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1},
                      [](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(64);
                        bufs->push_back(out);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of_int(99)};
                      });
  }
}

TEST(VmErrors, ArrayOutOfRangeParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Constant local index out of range — caught at compile time in the
    // bytecode backend, at execution in the tree; same message either way.
    KernelBuilder b = one_item_builder("locconst");
    const int lm = b.decl_array("Lm", Scalar::F64, 4, AddrSpace::Local);
    b.append(store_local(lm, iconst(9), fconst(1.0, t1)));
    b.append(store_global(0, iconst(0), load_local(lm, iconst(0), t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Runtime private index from a scalar argument.
    KernelBuilder b = one_item_builder("privrt");
    const int pa = b.decl_array("P", Scalar::F64, 2, AddrSpace::Private);
    b.append(store_private(pa, arg_ref(1, i32()), fconst(1.0, t1)));
    b.append(store_global(0, iconst(0), load_private(pa, iconst(0), t1)));
    expect_equivalent(b.build(), {1, 1}, {1, 1},
                      [](std::vector<simcl::BufferPtr>* bufs) {
                        auto out = make_buffer(64);
                        bufs->push_back(out);
                        return std::vector<ArgValue>{ArgValue::of(out),
                                                     ArgValue::of_int(7)};
                      });
  }
}

TEST(VmErrors, LoopShapeParity) {
  const Type t1 = fp(Scalar::F64, 1);
  {
    // Non-uniform bounds: limit depends on local id.
    KernelBuilder b("nonuni", Scalar::F64);
    b.add_arg("out", ArgKind::GlobalPtr, Scalar::F64);
    const int i = b.decl_var("i", i32());
    const int lx = b.decl_var("lx", i32());
    b.append(assign(lx, builtin(BuiltinFn::LocalId, 0)));
    b.append(for_loop(i, iconst(0), b.ref(lx) + 1, iconst(1),
                      {store_global(0, b.ref(i), fconst(1.0, t1))}));
    expect_equivalent(b.build(), {2, 1}, {2, 1}, [](auto* bufs) {
      auto out = make_buffer(64);
      bufs->push_back(out);
      return std::vector<ArgValue>{ArgValue::of(out)};
    });
  }
  {
    // Constant non-positive step — even for a zero-trip range the step
    // check fires first (matching the tree's evaluation order).
    KernelBuilder b = one_item_builder("step0");
    const int i = b.decl_var("i", i32());
    b.append(for_loop(i, iconst(0), iconst(0), iconst(-1),
                      {store_global(0, b.ref(i), fconst(1.0, t1))}));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
  {
    // Runtime step from a scalar argument (zero at launch).
    KernelBuilder b = one_item_builder("steprt");
    const int i = b.decl_var("i", i32());
    b.append(for_loop(i, iconst(0), iconst(4), arg_ref(1, i32()),
                      {store_global(0, b.ref(i), fconst(1.0, t1))}));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, one_out(64));
  }
}

TEST(VmErrors, BarrierAndReadOnlyParity) {
  {
    KernelBuilder b("divbar", Scalar::F32);
    b.add_arg("out", ArgKind::GlobalPtr, Scalar::F32);
    const int gid = b.decl_var("gid", i32());
    b.append(assign(gid, builtin(BuiltinFn::GlobalId, 0)));
    b.append(if_then(bin(BinOp::Lt, b.ref(gid), iconst(1)), {barrier()}));
    expect_equivalent(b.build(), {2, 1}, {2, 1}, [](auto* bufs) {
      auto out = make_buffer(64);
      bufs->push_back(out);
      return std::vector<ArgValue>{ArgValue::of(out)};
    });
  }
  {
    KernelBuilder b("ro", Scalar::F64);
    b.add_arg("a", ArgKind::GlobalConstPtr, Scalar::F64);
    b.append(store_global(0, iconst(0), fconst(1.0, fp(Scalar::F64, 1))));
    expect_equivalent(b.build(), {1, 1}, {1, 1}, [](auto* bufs) {
      auto buf = make_buffer(64);
      bufs->push_back(buf);
      return std::vector<ArgValue>{ArgValue::of(buf)};
    });
  }
}

TEST(VmErrors, DeadMalformedCodeDoesNotThrow) {
  const Type t1 = fp(Scalar::F64, 1);
  // Malformed accesses behind a statically-false if and a zero-trip
  // runtime loop must not fire in either backend.
  KernelBuilder b = one_item_builder("dead");
  const int i = b.decl_var("i", i32());
  const int lm = b.decl_array("Lm", Scalar::F64, 2, AddrSpace::Local);
  b.append(if_then(bin(BinOp::Lt, iconst(1), iconst(0)),
                   {store_local(lm, iconst(50), fconst(1.0, t1))}));
  b.append(for_loop(i, iconst(0), arg_ref(1, i32()), iconst(1),
                    {store_local(lm, iconst(99), fconst(1.0, t1)),
                     assign(i, bin(BinOp::Div, iconst(1), iconst(0)))}));
  b.append(store_global(0, iconst(0), fconst(2.0, t1)));
  const Kernel k = b.build();
  const RunResult tree = run_one(k, {1, 1}, {1, 1}, one_out(64),
                                 Backend::Tree, 1);
  const RunResult byte = run_one(k, {1, 1}, {1, 1}, one_out(64),
                                 Backend::Bytecode, 1);
  EXPECT_FALSE(tree.threw) << tree.message;
  EXPECT_FALSE(byte.threw) << byte.message;
  EXPECT_EQ(tree.bytes, byte.bytes);
  EXPECT_EQ(tree.counters, byte.counters);
}

// ---- backend resolution and the compiled cache -----------------------------

struct EnvGuard {
  ~EnvGuard() {
    unsetenv("GEMMTUNE_INTERP");
    set_backend_override(Backend::Auto);
  }
};

TEST(VmBackend, ResolutionPrecedence) {
  EnvGuard guard;
  unsetenv("GEMMTUNE_INTERP");
  set_backend_override(Backend::Auto);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Bytecode);
  EXPECT_EQ(resolve_backend(Backend::Tree), Backend::Tree);

  setenv("GEMMTUNE_INTERP", "tree", 1);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Tree);
  setenv("GEMMTUNE_INTERP", "bytecode", 1);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Bytecode);
  setenv("GEMMTUNE_INTERP", "native", 1);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Native);

  // The process-wide override (the CLI flag) beats the environment...
  setenv("GEMMTUNE_INTERP", "bytecode", 1);
  set_backend_override(Backend::Tree);
  EXPECT_EQ(resolve_backend(Backend::Auto), Backend::Tree);
  // ...and an explicit request beats both.
  EXPECT_EQ(resolve_backend(Backend::Bytecode), Backend::Bytecode);

  setenv("GEMMTUNE_INTERP", "nonsense", 1);
  set_backend_override(Backend::Auto);
  EXPECT_THROW(resolve_backend(Backend::Auto), Error);
  try {
    resolve_backend(Backend::Auto);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(strip_loc(e.what()),
              "GEMMTUNE_INTERP: unknown value 'nonsense' "
              "(use tree, bytecode, native)");
  }
  // An explicit backend never consults the (invalid) environment.
  EXPECT_EQ(resolve_backend(Backend::Tree), Backend::Tree);
}

TEST(VmCache, CompileOncePerKernelShape) {
  compiled_cache_clear();
  EXPECT_EQ(compiled_cache_size(), 0u);
  const Kernel k1 = stress_kernel(Scalar::F64);
  const auto make = stress_args(Scalar::F64, 8, 2);
  run_one(k1, {8, 1}, {4, 1}, make, Backend::Bytecode, 1);
  EXPECT_EQ(compiled_cache_size(), 1u);
  // Re-launching the same kernel (rebuilt, so a different object identity
  // but identical serialized form) hits the cache.
  run_one(stress_kernel(Scalar::F64), {8, 1}, {4, 1}, make,
          Backend::Bytecode, 4);
  EXPECT_EQ(compiled_cache_size(), 1u);
  run_one(stress_kernel(Scalar::F32), {8, 1}, {4, 1},
          stress_args(Scalar::F32, 8, 2), Backend::Bytecode, 1);
  EXPECT_EQ(compiled_cache_size(), 2u);
  compiled_cache_clear();
  EXPECT_EQ(compiled_cache_size(), 0u);
}

}  // namespace
}  // namespace gemmtune::ir
