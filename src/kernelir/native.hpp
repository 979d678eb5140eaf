// Native-compiled kernel backend: JIT to specialized C++ via the host
// toolchain, loaded with dlopen.
//
// emit_native_source() translates one compiled bytecode program into a
// self-contained C++ translation unit specialized for that kernel: every
// instruction becomes straight-line code with its operand registers, lane
// counts, array offsets and constants baked in as literals. Floating
// registers and private arrays are lane-major (slot s of work-item t at
// s*SN + t, SN = NI plus one cache line), so consecutive per-item
// instructions become one pass over the work-items, printed as explicit
// host-width vectors whatever the kernel's own vector width;
// when the kernel declares reqd_work_group_size the work-group size
// itself is a compile-time constant. Bounds checks the
// bytecode pass already proved (constant private/local addressing lowered
// to FmaPP / SplatLaneP / kImmAddr forms) are gone entirely; the remaining
// runtime checks raise the exact same message text as the tree walker and
// the VM.
//
// get_or_compile_native() drives the pipeline: emit the source, invoke the
// host C++ compiler (GEMMTUNE_JIT_CXX, else the compiler this library was
// built with, else c++/g++/clang++ from PATH), dlopen the resulting shared
// object, and publish it into the process-wide program cache
// (kernelir/compile.hpp) keyed on the kernel's serialized bytes. Shared
// objects are also cached on disk, hash-named under --jit-cache-dir /
// GEMMTUNE_JIT_CACHE (temp-file + rename, like TunedDatabase), so a warm
// start dlopens the cached .so without ever running the compiler. Every
// failure path (no toolchain, unwritable cache dir, compile error) is
// soft: the caller falls back to the bytecode VM.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "kernelir/compile.hpp"
#include "kernelir/vm.hpp"

namespace gemmtune::ir {

/// Exported entry point of a generated shared object. Flat C ABI — no
/// shared struct layouts between the host build and the JIT build:
///   (group_begin, group_end, global0, global1, local0, local1,
///    arg_f64[], arg_f32[], arg_elems[], arg_i[], arg_f[],
///    counters[7] = {flops, mads, global_load_bytes, global_store_bytes,
///                   local_load_bytes, local_store_bytes, barriers},
///    err, err_cap)
/// Returns 0 on success; nonzero with the error message (no source-location
/// prefix) written into `err`.
using NativeEntryFn = long long (*)(
    long long, long long, long long, long long, long long, long long,
    double* const*, float* const*, const long long*, const long long*,
    const double*, unsigned long long*, char*, long long);

/// Symbol name of the entry point; versioned so a stale cached .so from an
/// older ABI fails dlsym instead of being called with the wrong contract.
inline constexpr const char* kNativeEntrySymbol = "gemmtune_native_entry_v1";

/// A dlopen'd compiled kernel; closes the handle when the last reference
/// (program cache entry or in-flight launch) drops.
class NativeKernel {
 public:
  NativeKernel(void* handle, NativeEntryFn fn, std::string so_path)
      : handle_(handle), fn_(fn), so_path_(std::move(so_path)) {}
  ~NativeKernel();
  NativeKernel(const NativeKernel&) = delete;
  NativeKernel& operator=(const NativeKernel&) = delete;

  NativeEntryFn fn() const { return fn_; }
  const std::string& so_path() const { return so_path_; }

 private:
  void* handle_ = nullptr;
  NativeEntryFn fn_ = nullptr;
  std::string so_path_;
};

/// Vector width (in doubles, across work-items) the native emitter uses
/// on this host: 8 with AVX-512F, 4 with AVX2, 2 baseline. The emitter
/// prints explicit fixed-width vector lanes (GCC/Clang vector extensions)
/// for the unmasked per-item ops, with f32 rounding as per-element
/// widen→op→narrow conversions inside the vector body, so buffers stay
/// bit-identical to the interpreters. The width is folded into both the
/// program-cache key and the on-disk .so hash.
int native_simd_width();

/// Emits the specialized C++ translation unit for one compiled kernel at
/// `simd_width` lanes (2, 4, 8 or 16; anything else throws). Pure and
/// deterministic (the source depends only on the program, the kernel's
/// reqd_work_group_size / argument shapes, and the width).
std::string emit_native_source(const Kernel& kernel,
                               const CompiledKernel& prog,
                               int simd_width = native_simd_width());

/// Sets the on-disk .so cache directory (the --jit-cache-dir flag). An
/// empty string restores the default: GEMMTUNE_JIT_CACHE if set, else a
/// process-lifetime temporary directory whose objects are unlinked after
/// dlopen.
void set_jit_cache_dir(const std::string& dir);

/// True when a host C++ compiler answers the probe. The probe runs once
/// per process and is cached; every probe subprocess actually spawned is
/// counted on interp.toolchain_probe, so repeated cold compiles add
/// nothing. reset_native_probe() re-reads the environment (tests).
bool native_toolchain_available();
void reset_native_probe();

/// Returns the native-compiled kernel for `kernel`, building (or loading
/// from the on-disk cache) on first use, via the process-wide program
/// cache. Returns nullptr when the native backend is unavailable for this
/// kernel — no toolchain, compile or dlopen failure — with the cause in
/// `*why`; the failure is cached per kernel so repeated launches don't
/// re-run the compiler. Thread-safe; first insert wins.
NativeKernelPtr get_or_compile_native(const Kernel& kernel,
                                      std::string* why = nullptr);

/// Prints a one-line warning to stderr naming the fallback cause; each
/// distinct cause is printed once per process.
void warn_native_fallback(const std::string& why);

/// Runs work-groups [begin, end) of the plan through a native kernel and
/// returns the counters. Throws gemmtune::Error (same message text as the
/// other backends) when the kernel reports a runtime fault.
Counters native_run_range(const NativeKernel& nk, const LaunchPlan& plan,
                          std::int64_t begin, std::int64_t end);

}  // namespace gemmtune::ir
