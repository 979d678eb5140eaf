// JIT driver for the native backend: host-toolchain compilation, on-disk
// shared-object cache, dlopen, and the launch bridge.
//
// Pipeline (get_or_compile_native):
//  1. key = serialize_kernel(); consult the process-wide program cache's
//     native slot (compile.hpp) — hits and sticky failures return
//     immediately, so the compiler runs at most once per kernel shape.
//  2. hash the (emitter version + flags + key) bytes; if a .so with that
//     hash already sits in the cache directory and the identity string it
//     exports is that hash, dlopen it directly — a warm start never
//     invokes the compiler. Any other object under that name (stale,
//     foreign or corrupt) is rebuilt over, counted on interp.native_stale.
//  3. otherwise emit the specialized source with the identity string
//     appended, run the host C++ compiler (-ffp-contract=off keeps the
//     generated arithmetic bit-identical to the interpreter's), publish
//     the object with temp-file + rename (concurrent processes race
//     benignly: rename is atomic and either winner's object is valid),
//     and dlopen the result.
// Every failure is soft: the cause is recorded in the cache as a sticky
// per-kernel failure and the caller falls back to the bytecode VM.
#include "kernelir/native.hpp"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/trace.hpp"

#ifndef GEMMTUNE_HOST_CXX
#define GEMMTUNE_HOST_CXX ""
#endif

namespace gemmtune::ir {

namespace {

/// Bumping this invalidates every cached .so (the hash covers it).
constexpr const char* kEmitterVersion = "gemmtune-native-emit-v3";
/// JIT compiler flags. The backend contract is byte-identical buffers
/// against the interpreter. Every hot loop is an explicit vector over the
/// work-items (GCC's loop vectorizer does not analyze the per-item loops
/// inside the goto-formed kernel loops), with f32 rounding as
/// per-element conversions inside the vector body, so the loop
/// vectorizer may still run on whatever is left. SLP stays off: it
/// reorganizes scalar (double)(float) rounding chains at a one-ULP cost
/// on f32 kernels, and the explicit vectors leave it no upside.
/// Contraction is off for the same reason. Loop distribution is off: the
/// emitter merges consecutive per-item instructions into one pass on
/// purpose, and with GCC 12 distributing those passes into copy calls
/// gave wrong buffers for kernels whose work-group size is a run-time
/// value (caught by the fuzzed native differential; correct at -O1 or
/// with distribution off).
constexpr const char* kJitFlags =
    "-std=c++17 -O3 -fPIC -shared -ffp-contract=off "
    "-fno-tree-loop-distribution -fno-tree-loop-distribute-patterns "
    "-fno-tree-slp-vectorize";

/// Compiler flags for one native compile at the given emit width. The
/// arch flag must cover the vector width the emitter baked in, and both
/// feed the .so hash so changing either never reuses a stale object.
std::string jit_flags_for(int simd_w) {
  std::string flags = kJitFlags;
#if defined(__x86_64__)
  if (simd_w >= 8) {
    flags += " -mavx512f";
  } else if (simd_w >= 4) {
    flags += " -mavx2";
  }
#endif
  return flags;
}

std::mutex g_native_mutex;
std::string g_cache_dir_override;   // --jit-cache-dir
std::string g_temp_dir;             // lazily created mkdtemp fallback
bool g_probe_done = false;
std::string g_probe_cxx;            // empty = no usable compiler

bool file_exists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0;
}

bool dir_writable(const std::string& dir) {
  struct stat st {};
  if (::stat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) return false;
  return ::access(dir.c_str(), W_OK | X_OK) == 0;
}

/// Quotes a path for the shell command line.
std::string shq(const std::string& s) {
  std::string out = "'";
  for (char c : s) {
    if (c == '\'')
      out += "'\\''";
    else
      out += c;
  }
  out += "'";
  return out;
}

bool probe_cxx(const std::string& cxx) {
  if (cxx.empty()) return false;
  if (trace::enabled()) trace::counter_add("interp.toolchain_probe", 1);
  const std::string cmd = shq(cxx) + " --version >/dev/null 2>&1";
  return std::system(cmd.c_str()) == 0;
}

/// Resolves the host compiler once. GEMMTUNE_JIT_CXX, when set, is used
/// exclusively (even if unusable — that's how tests simulate a machine
/// without a toolchain); otherwise the compiler this library was built
/// with, then common names from PATH.
const std::string& toolchain_cxx() {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  if (!g_probe_done) {
    g_probe_done = true;
    g_probe_cxx.clear();
    if (const char* env = std::getenv("GEMMTUNE_JIT_CXX")) {
      if (probe_cxx(env)) g_probe_cxx = env;
    } else {
      for (const char* cand :
           {GEMMTUNE_HOST_CXX, "c++", "g++", "clang++"}) {
        if (probe_cxx(cand)) {
          g_probe_cxx = cand;
          break;
        }
      }
    }
  }
  return g_probe_cxx;
}

/// FNV-1a 64 over the emitter version, JIT flags, and the cache key (the
/// serialized kernel plus the SIMD-mode suffix).
std::uint64_t jit_hash(const std::string& flags, const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(s[i]);
      h *= 1099511628211ull;
    }
  };
  mix(kEmitterVersion, std::strlen(kEmitterVersion));
  mix(flags.data(), flags.size());
  mix(key.data(), key.size());
  return h;
}

/// Lazily created process-lifetime temp directory for objects that have no
/// persistent home (no cache dir configured, or the configured one is
/// unwritable). Never cleaned up mid-process: dlopen'd objects must
/// outlive their NativeKernel.
const std::string& temp_dir() {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  if (g_temp_dir.empty()) {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl =
        std::string(base && *base ? base : "/tmp") + "/gemmtune-jit-XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) g_temp_dir = buf.data();
  }
  return g_temp_dir;
}

/// The persistent cache directory, or "" when none is usable. Creates the
/// configured directory if absent (one level, like TunedDatabase).
std::string persistent_dir() {
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(g_native_mutex);
    dir = g_cache_dir_override;
  }
  if (dir.empty()) {
    if (const char* env = std::getenv("GEMMTUNE_JIT_CACHE")) dir = env;
  }
  if (dir.empty()) return "";
  if (!file_exists(dir)) ::mkdir(dir.c_str(), 0755);
  return dir_writable(dir) ? dir : "";
}

/// Exported string holding the object's identity: the 16-hex jit_hash its
/// cache name carries.
constexpr const char* kNativeMetaSymbol = "gemmtune_native_meta_v1";

struct DlHandle {
  void* handle = nullptr;
  NativeEntryFn fn = nullptr;
  std::string error;
};

/// dlopens an object and resolves its entry point, accepting it only when
/// its exported identity is `id` (the cache name alone proves nothing).
DlHandle dl_load(const std::string& so_path, const std::string& id) {
  DlHandle out;
  out.handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (out.handle == nullptr) {
    const char* e = ::dlerror();
    out.error = strf("dlopen failed: %s", e != nullptr ? e : "unknown");
    return out;
  }
  const auto* meta =
      static_cast<const char*>(::dlsym(out.handle, kNativeMetaSymbol));
  out.fn = reinterpret_cast<NativeEntryFn>(
      ::dlsym(out.handle, kNativeEntrySymbol));
  if (out.fn == nullptr) {
    out.error = strf("symbol %s missing (stale cache object?)",
                     kNativeEntrySymbol);
  } else if (meta == nullptr || id != meta) {
    out.error = "object identity is not " + id + " (stale or foreign object)";
    out.fn = nullptr;
  }
  if (out.fn == nullptr) {
    ::dlclose(out.handle);
    out.handle = nullptr;
  }
  return out;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
  f.flush();
  return static_cast<bool>(f);
}

/// Runs the host compiler on `src_path`, producing `so_path` via a
/// temporary + rename. Returns "" on success, else the cause (with the
/// first compiler diagnostic line when available).
std::string run_jit_compiler(const std::string& cxx,
                             const std::string& flags,
                             const std::string& src_path,
                             const std::string& so_path) {
  const std::string tmp_so = so_path + strf(".tmp.%d", ::getpid());
  const std::string log = tmp_so + ".log";
  const std::string cmd = shq(cxx) + " " + flags + " -o " + shq(tmp_so) +
                          " " + shq(src_path) + " 2> " + shq(log);
  const int rc = std::system(cmd.c_str());
  std::string cause;
  if (rc != 0) {
    std::ifstream lf(log);
    std::string first_line;
    std::getline(lf, first_line);
    cause = strf("host compiler failed (exit %d)", rc);
    if (!first_line.empty()) cause += ": " + first_line;
    std::remove(tmp_so.c_str());
  } else if (std::rename(tmp_so.c_str(), so_path.c_str()) != 0) {
    cause = "rename into cache failed";
    std::remove(tmp_so.c_str());
  }
  std::remove(log.c_str());
  return cause;
}

/// Builds (or loads) the shared object for one kernel. On success returns
/// the NativeKernel; on failure returns null with the cause in `why`.
NativeKernelPtr jit_build(const Kernel& kernel, const std::string& key,
                          int simd_w, std::string* why) {
  const std::string flags = jit_flags_for(simd_w);
  const std::string id = strf(
      "%016llx", static_cast<unsigned long long>(jit_hash(flags, key)));
  const std::string so_name = "gemmtune-" + id + ".so";
  const std::string pdir = persistent_dir();

  // Warm start: a cached object needs no compiler at all.
  if (!pdir.empty()) {
    const std::string cached = pdir + "/" + so_name;
    if (file_exists(cached)) {
      DlHandle h = dl_load(cached, id);
      if (h.fn != nullptr) {
        if (trace::enabled())
          trace::counter_add("interp.native_disk_hits", 1);
        return std::make_shared<const NativeKernel>(h.handle, h.fn, cached);
      }
      // Stale, foreign or corrupt: fall through and rebuild over it.
      if (trace::enabled()) trace::counter_add("interp.native_stale", 1);
    }
  }

  const std::string& cxx = toolchain_cxx();
  if (cxx.empty()) {
    if (why != nullptr) {
      const char* env = std::getenv("GEMMTUNE_JIT_CXX");
      *why = env != nullptr
                 ? strf("GEMMTUNE_JIT_CXX compiler '%s' is not usable", env)
                 : "no usable host C++ compiler found";
    }
    return nullptr;
  }

  std::string dir = pdir.empty() ? temp_dir() : pdir;
  if (dir.empty()) {
    if (why != nullptr) *why = "no writable directory for JIT objects";
    return nullptr;
  }

  const CompiledKernelPtr prog = get_or_compile(kernel);
  const std::string source =
      emit_native_source(kernel, *prog, simd_w) + "extern \"C\" const char " +
      kNativeMetaSymbol + "[] = \"" + id + "\";\n";
  const std::string src_path =
      dir + "/gemmtune-" + id + strf(".%d.cpp", ::getpid());
  if (!write_file(src_path, source)) {
    if (why != nullptr) *why = "cannot write JIT source to " + dir;
    return nullptr;
  }

  std::string so_path = dir + "/" + so_name;
  std::string cause;
  {
    trace::Span span("interp.native_jit");
    if (trace::enabled()) trace::counter_add("interp.native_compiles", 1);
    cause = run_jit_compiler(cxx, flags, src_path, so_path);
  }
  std::remove(src_path.c_str());
  if (!cause.empty()) {
    if (why != nullptr) *why = cause;
    return nullptr;
  }

  DlHandle h = dl_load(so_path, id);
  if (h.fn == nullptr) {
    if (why != nullptr) *why = h.error;
    return nullptr;
  }
  // Objects in the process temp dir are unlinked once mapped; the mapping
  // stays valid and the directory stays clean.
  if (pdir.empty()) std::remove(so_path.c_str());
  return std::make_shared<const NativeKernel>(h.handle, h.fn, so_path);
}

}  // namespace

NativeKernel::~NativeKernel() {
  if (handle_ != nullptr) ::dlclose(handle_);
}

void set_jit_cache_dir(const std::string& dir) {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  g_cache_dir_override = dir;
}

bool native_toolchain_available() { return !toolchain_cxx().empty(); }

int native_simd_width() {
  // The generic 2-lane fallback still wins on baseline x86-64 (SSE2) and
  // lets non-x86 hosts use the synthesized GCC vector ops.
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx512f")) return 8;
  if (__builtin_cpu_supports("avx2")) return 4;
#endif
  return 2;
}

void reset_native_probe() {
  std::lock_guard<std::mutex> lock(g_native_mutex);
  g_probe_done = false;
  g_probe_cxx.clear();
}

NativeKernelPtr get_or_compile_native(const Kernel& kernel,
                                      std::string* why) {
  // The emit width is part of the identity of a compiled object (and of
  // its hash-named .so), so a cache shared across hosts of different
  // widths never serves an object built for the other width.
  const int simd_w = native_simd_width();
  const std::string key =
      serialize_kernel(kernel) + strf("#simd=w%d", simd_w);
  const NativeSlot slot = native_cache_lookup(key);
  if (slot.present) {
    if (slot.kernel) {
      if (trace::enabled()) trace::counter_add("interp.native_hits", 1);
      return slot.kernel;
    }
    if (why != nullptr) *why = "native compilation previously failed";
    return nullptr;
  }
  std::string cause;
  NativeKernelPtr nk = jit_build(kernel, key, simd_w, &cause);
  if (!nk) {
    native_cache_store(key, nullptr, true);
    if (why != nullptr) *why = cause;
    return nullptr;
  }
  return native_cache_store(key, std::move(nk), false);
}

void warn_native_fallback(const std::string& why) {
  static std::mutex mu;
  static std::set<std::string>* seen = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  if (seen->insert(why).second) {
    std::fprintf(stderr,
                 "gemmtune: native backend unavailable (%s); "
                 "falling back to bytecode\n",
                 why.c_str());
  }
}

Counters native_run_range(const NativeKernel& nk, const LaunchPlan& plan,
                          std::int64_t begin, std::int64_t end) {
  const std::size_t n = plan.views.size();
  std::vector<double*> f64(n > 0 ? n : 1, nullptr);
  std::vector<float*> f32(n > 0 ? n : 1, nullptr);
  std::vector<long long> elems(n > 0 ? n : 1, 0);
  std::vector<long long> iargs(n > 0 ? n : 1, 0);
  std::vector<double> fargs(n > 0 ? n : 1, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    const LaunchPlan::ArgView& v = plan.views[a];
    f64[a] = v.f64;
    f32[a] = v.f32;
    elems[a] = v.elems;
    iargs[a] = v.i;
    fargs[a] = v.f;
  }
  unsigned long long raw[7] = {0, 0, 0, 0, 0, 0, 0};
  char err[640] = {0};
  const long long rc =
      nk.fn()(begin, end, plan.global[0], plan.global[1], plan.local[0],
              plan.local[1], f64.data(), f32.data(), elems.data(),
              iargs.data(), fargs.data(), raw, err,
              static_cast<long long>(sizeof err));
  if (rc != 0) {
    err[sizeof err - 1] = '\0';
    fail(err[0] != '\0' ? std::string(err)
                        : std::string("native kernel failed"));
  }
  Counters c;
  c.flops = raw[0];
  c.mads = raw[1];
  c.global_load_bytes = raw[2];
  c.global_store_bytes = raw[3];
  c.local_load_bytes = raw[4];
  c.local_store_bytes = raw[5];
  c.barriers = raw[6];
  return c;
}

}  // namespace gemmtune::ir
