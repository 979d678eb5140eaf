// perfbench: wall-clock GEMM benchmark of the gemmtune libraries.
//
//   perfbench --workload gemm_mixed|verify_large --seed N
//             --seconds S --trace 0|1 --root DIR
//   perfbench --prepare --root DIR      fill the per-workload JIT caches
//   perfbench --self-test               the benchmark's own tests
//   perfbench --list-metrics            metric names and units
//
// DIR holds the JIT caches, the cold-compile times and the span files.
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it are a readable report.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "blas/hostblas.hpp"
#include "codegen/gemm_generator.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"
#include "kernelir/native.hpp"
#include "kernelir/vm.hpp"
#include "serve/core/async_server.hpp"
#include "serve/workload.hpp"
#include "trace/trace.hpp"
#include "tuner/shape.hpp"
#include "tuner/strategy/strategy.hpp"

namespace perfbench {
namespace {

namespace gt = gemmtune;
namespace ir = gemmtune::ir;
namespace fs = std::filesystem;
using gt::blas::GemmEngine;

// ------------------------------------------------------------ settings

/// Threads for the library's pool; the serve probe adds one executor per
/// device on top, so pool + executors stay within a 4-thread host.
int pinned_threads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(2, hw));
}
// Warm starts: a few before the first call, then one after any call that
// ends at least kSetupEverySeconds after the previous one, so the median
// covers the whole run as the call times do.
constexpr int kInitialSetups = 5;
constexpr double kSetupEverySeconds = 0.25;
constexpr std::uint64_t kScanSeeds = 4;
constexpr std::int64_t kScanRounds = 32;
// Serve probe of the gemm_mixed traced run.
constexpr int kServeTraceRequests = 100;
constexpr int kServeTraces = 4;      // trace 0 is replayed; all are tuned
constexpr double kServeRate = 2000;  // requests per simulated second
constexpr double kServeReplaySeconds = 5;
constexpr int kServeExecuteMaxN = 64;
constexpr const char* kServeStrategy = "model_topk,budget=24";
constexpr int kServeTuneCandidates = 300;
constexpr int kStrategyReplayClasses = 6;

// ------------------------------------------------------------ metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& e2e_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s"},
      {"call_ms.p50", "ms"},
      {"gflops", "GFlop/s"},
      {"peak_rss_mb", "MB"}};
  return m;
}

const std::vector<MetricDef>& layer_metrics() {
  static const std::vector<MetricDef> m = {
      {"codegen.generate_ms.p50", "ms"},
      {"tuner.shape_cost_us.p50", "us"},
      {"kernelir.compile_ms.p50", "ms"},
      {"kernelir.cache_hit_ratio", "ratio"},
      {"simcl.buffer_ms.p50", "ms"},
      {"layout.pack_ms.p50", "ms"},
      {"layout.unpack_ms.p50", "ms"},
      {"layout.pack_gbs", "GB/s"},
      {"kernelir.launch_ms.p50", "ms"},
      {"kernelir.launch_gflops", "GFlop/s"},
      {"kernelir.frac_host_peak", "ratio"},
      {"kernelir.flops_per_byte", "flop/B-computed"},
      {"kernelir.vm_launch_ms.p50", "ms"},
      {"kernelir.jit_warm_ms", "ms"},
      {"kernelir.jit_cold_s.p50", "s"},
      {"kernelir.jit_cold_s.max", "s"},
      {"hostblas.oracle_ms.p50", "ms"},
      {"hostblas.oracle_gflops", "GFlop/s"},
      {"blas.self_ms.p50", "ms"},
      {"blas.direct_share", "ratio"},
      {"blas.direct_calls", "count"},
      {"tuner.strategy_s", "s"},
      {"tuner.candidates_per_s", "1/s"},
      {"serve.warmup_s", "s"},
      {"serve.estimates_s", "s"},
      {"serve.run_s", "s"},
      {"serve.executed", "count"},
      {"serve.shed", "count"},
      {"serve.expired", "count"},
      {"trace.overhead_pct", "%"},
      {"host.fma_peak_gflops", "GFlop/s"}};
  return m;
}

/// Collected results of one run.
struct Report {
  std::map<std::string, double> values;
  std::set<std::string> not_applicable;  ///< printed as n/a, value 0
  std::vector<std::string> notes;        ///< sample counts etc.
  /// Printed but not part of the JSON metrics: fewer than ten samples lie
  /// beyond one run's p99, so it is too noisy to hold a bound.
  std::vector<std::string> unbounded;
  std::vector<std::string> errors;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void set(const std::string& k, double v) {
    values[k] = v;
    not_applicable.erase(k);
  }
  void na(const std::string& k) {
    values[k] = 0;
    not_applicable.insert(k);
  }
  /// Counts one failed operation and keeps the first messages.
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
};

std::string num(double v) {
  std::ostringstream s;
  s.precision(17);
  s << v;
  return s.str();
}

/// Records call_ms.p99 with its sample count as a printed-only metric.
void report_p99(const std::vector<double>& ms, Report& rep) {
  const auto beyond = ms.size() - static_cast<std::size_t>(std::ceil(
                                      0.99 * static_cast<double>(ms.size())));
  rep.unbounded.push_back("call_ms.p99 = " + num(percentile(ms, 0.99)) +
                          " ms (" + std::to_string(ms.size()) + " samples, " +
                          std::to_string(beyond) + " beyond it)");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ kernels

template <typename F>
void with_prec(Precision p, F&& f) {
  if (p == Precision::SP)
    f.template operator()<float>();
  else
    f.template operator()<double>();
}

/// One GEMM engine per benchmark device.
class Engines {
 public:
  Engines() {
    for (DeviceId d : bench_devices())
      engines_.push_back(std::make_unique<GemmEngine>(d));
  }
  GemmEngine& get(DeviceId d) {
    for (auto& e : engines_)
      if (e->device_id() == d) return *e;
    throw std::runtime_error("no engine for device");
  }

 private:
  std::vector<std::unique_ptr<GemmEngine>> engines_;
};

/// Identity of one generated kernel the GEMM path can launch: the packed
/// Table II kernel per device x precision, or a direct kernel per type and
/// fringe guard.
struct KernelKey {
  DeviceId dev;
  Precision prec;
  bool direct;
  GemmType type;
  bool guarded;

  std::string name() const {
    std::string s = gt::simcl::to_string(dev) + "." + gt::codegen::to_string(prec);
    s.erase(std::remove(s.begin(), s.end(), ' '), s.end());
    if (!direct) return s + ".packed";
    return s + ".direct." + gt::to_string(type) + (guarded ? ".guarded" : "");
  }
  ir::Kernel make(GemmEngine& e) const {
    const gt::codegen::KernelParams p = e.kernel_for(prec).params;
    if (!direct) return gt::codegen::generate_gemm_kernel(p);
    return gt::codegen::generate_direct_gemm_kernel(
        gt::tuner::direct_variant(p), gt::trans_a(type), gt::trans_b(type),
        guarded);
  }
};

/// The kernel a GemmEngine::gemm call on `r` launches (same decision the
/// engine makes through shape_cost).
KernelKey key_for(const Request& r, GemmEngine& e) {
  const gt::codegen::KernelParams p = e.kernel_for(r.prec).params;
  const auto c = gt::tuner::shape_cost(e.model(), p, r.M, r.N, r.K);
  if (!c.used_direct) return {r.device, r.prec, false, GemmType::NN, false};
  return {r.device, r.prec, true, r.type,
          direct_guarded(gt::tuner::direct_variant(p), r)};
}

std::size_t count_objects(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec))
    if (e.path().extension() == ".so") ++n;
  return n;
}

std::vector<Request> gemm_round(const std::string& w, std::uint64_t seed,
                                std::int64_t round) {
  return w == "gemm_mixed" ? mixed_round(seed, round)
                           : verify_round(seed, round);
}

/// Kernels the request streams of `workloads` launch, over a fixed sample
/// of seeds and rounds. A workload's setup loads the kernels of its own
/// scan; a run that meets a kernel outside it builds it, untimed, before
/// timing the call that needs it.
std::map<std::string, KernelKey> scan_keys(
    Engines& engines, const std::vector<std::string>& workloads) {
  std::map<std::string, KernelKey> keys;
  for (const std::string& w : workloads)
    for (std::uint64_t seed = 1; seed <= kScanSeeds; ++seed)
      for (std::int64_t round = 0; round < kScanRounds; ++round)
        for (const Request& r : gemm_round(w, seed, round)) {
          const KernelKey k = key_for(r, engines.get(r.device));
          keys.emplace(k.name(), k);
        }
  return keys;
}

/// Cold JIT builds of `keys` into the current cache directory, up to 4 at
/// a time (one host thread each). Returns the seconds each build took and
/// the object it produced; throws when a build fails.
std::vector<std::pair<double, std::string>> cold_compile(
    const std::vector<KernelKey>& keys, Engines& engines) {
  std::vector<ir::Kernel> kernels;
  for (const KernelKey& k : keys) kernels.push_back(k.make(engines.get(k.dev)));
  std::vector<std::pair<double, std::string>> out(keys.size());
  std::vector<std::string> why(keys.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  const int nworkers = std::max(
      1, std::min(4, static_cast<int>(std::thread::hardware_concurrency())));
  for (int w = 0; w < nworkers; ++w)
    workers.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < keys.size();) {
        const std::int64_t t0 = now_ns();
        const ir::NativeKernelPtr nk =
            ir::get_or_compile_native(kernels[i], &why[i]);
        out[i].first = 1e-9 * double(now_ns() - t0);
        if (nk) out[i].second = nk->so_path();
        else if (why[i].empty()) why[i] = "unknown cause";
      }
    });
  for (auto& t : workers) t.join();
  for (std::size_t i = 0; i < keys.size(); ++i)
    if (out[i].second.empty())
      throw std::runtime_error("cannot JIT " + keys[i].name() + ": " + why[i]);
  return out;
}

/// Warm-start bookkeeping of one native-workload run.
struct JitState {
  std::string dir;
  std::map<std::string, KernelKey> scan;   ///< loaded in every timed setup
  std::map<std::string, KernelKey> extra;  ///< met during the run
  std::size_t objects_at_start = 0;
  std::size_t built_in_run = 0;  ///< objects built untimed, outside the scan
};

/// Builds the kernel `r` needs if no setup loaded it (untimed, noted).
void ensure_warm(JitState& jit, const Request& r, GemmEngine& e,
                 Engines& engines, Report& rep) {
  const KernelKey k = key_for(r, e);
  if (jit.scan.count(k.name()) || jit.extra.count(k.name())) return;
  const std::size_t before = count_objects(jit.dir);
  const auto built = cold_compile({k}, engines);
  jit.extra.emplace(k.name(), k);
  jit.built_in_run += count_objects(jit.dir) - before;
  rep.notes.push_back("untimed cold JIT during the run: " + k.name() + " " +
                      num(built[0].first) + " s");
}

// ------------------------------------------------------------ identity

std::string identity_json(const std::string& workload, std::uint64_t seed,
                          int trace, const std::string& jit_state) {
  const ir::Backend be = ir::resolve_backend(ir::Backend::Auto);
  std::ostringstream s;
  s << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
    << ", \"trace\": " << trace << ", \"backend\": \"" << ir::to_string(be)
    << "\", \"vm_dispatch\": \""
    << ir::to_string(ir::resolve_vm_dispatch()) << "\", \"simd_width\": "
    << (be == ir::Backend::Native ? ir::native_simd_width() : 0)
    << ", \"threads\": " << gt::configured_threads()
    << ", \"jit_cache\": \"" << jit_state << "\"}";
  return s.str();
}

// ------------------------------------------------------------ gemm workloads

struct GemmSetup {
  std::unique_ptr<Engines> engines;
  double setup_s = 0;
  std::vector<double> warm_ms;  ///< per-kernel warm JIT load
};

/// One warm start from an empty program cache: engine construction plus
/// the warm JIT load (dlopen) of every kernel of the workload's scan. The
/// kernels built during the run are reloaded after the clock stops.
GemmSetup gemm_setup(const JitState& jit, Report& rep) {
  GemmSetup s;
  const auto load = [&](const std::string& name, const KernelKey& k) {
    std::string why;
    if (!ir::get_or_compile_native(k.make(s.engines->get(k.dev)), &why)) {
      rep.fail("native backend unavailable for " + name + ": " + why);
    }
  };
  const std::int64_t t0 = now_ns();
  ir::compiled_cache_clear();
  s.engines = std::make_unique<Engines>();
  for (const auto& [name, k] : jit.scan) {
    const std::int64_t k0 = now_ns();
    load(name, k);
    s.warm_ms.push_back(1e-6 * double(now_ns() - k0));
  }
  s.setup_s = 1e-9 * double(now_ns() - t0);
  for (const auto& [name, k] : jit.extra) load(name, k);
  return s;
}

/// Runs one request through GemmEngine::gemm and checks it. Returns the
/// call's wall time in ms; failures are counted in `rep`.
template <typename T>
double timed_call(const Request& r, GemmEngine& e, bool verify,
                  std::uint64_t seed, Report& rep, Operands<T>* keep = nullptr) {
  Operands<T> op = make_operands<T>(r);
  gt::blas::GemmProfile prof;
  std::string bad;
  const std::int64_t t0 = now_ns();
  try {
    prof = e.gemm<T>(gt::trans_a(r.type), gt::trans_b(r.type), r.M, r.N, r.K,
                     static_cast<T>(r.alpha), op.A, op.B,
                     static_cast<T>(r.beta), op.C, verify);
  } catch (const std::exception& ex) {
    bad = std::string("threw: ") + ex.what();
  }
  const double ms = 1e-6 * double(now_ns() - t0);
  if (bad.empty()) bad = check_result(r, op, seed);
  if (bad.empty() && verify &&
      !(prof.max_error >= 0 &&
        prof.max_error <= gt::hostblas::gemm_tolerance<T>(r.K)))
    bad = "max_error " + num(prof.max_error) + " above gemm_tolerance";
  ++rep.attempted;
  if (!bad.empty()) {
    rep.fail("request " + std::to_string(r.id) + ": " + bad);
  }
  if (keep) *keep = std::move(op);
  return ms;
}

void run_gemm_untraced(const std::string& w, std::uint64_t seed,
                       double seconds, JitState& jit, Report& rep) {
  const bool verify = w == "verify_large";
  GemmSetup s;
  std::vector<double> setup_s;
  for (int i = 0; i < kInitialSetups; ++i) {
    s = gemm_setup(jit, rep);
    setup_s.push_back(s.setup_s);
  }
  std::vector<double> ms;
  double flops = 0, busy_s = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t round = 0, last_setup = t0;
  // Whole rounds only, so every run sees the same size mix.
  while (round == 0 || 1e-9 * double(now_ns() - t0) < seconds) {
    for (const Request& r : gemm_round(w, seed, round)) {
      ensure_warm(jit, r, s.engines->get(r.device), *s.engines, rep);
      with_prec(r.prec, [&]<typename T>() {
        const double m =
            timed_call<T>(r, s.engines->get(r.device), verify, seed, rep);
        ms.push_back(m);
        busy_s += 1e-3 * m;
        flops += r.flops();
      });
      // Another warm start; its engines are dropped, the calls keep theirs.
      if (1e-9 * double(now_ns() - last_setup) >= kSetupEverySeconds) {
        setup_s.push_back(gemm_setup(jit, rep).setup_s);
        last_setup = now_ns();
      }
    }
    ++round;
  }
  rep.set("setup_s", median(setup_s));
  rep.set("call_ms.p50", median(ms));
  report_p99(ms, rep);
  rep.set("gflops", flops / busy_s * 1e-9);
  rep.notes.push_back("calls: " + std::to_string(ms.size()) + " in " +
                      std::to_string(round) + " rounds; warm starts: " +
                      std::to_string(setup_s.size()) + " of " +
                      std::to_string(jit.scan.size()) + " kernels");
}

// ------------------------------------------------------------ traced layers

/// Per-layer numbers derived from the replay spans and stats.
struct LayerAcc {
  std::vector<double> gemm_ms, untraced_ms;
  double launch_flops = 0, launch_bytes = 0, launch_s = 0;
  double peak_weighted_s = 0;  ///< sum of launch time x host peak (flop)
  double packed_bytes = 0;
  double oracle_flops = 0;
  std::int64_t calls = 0, direct = 0;
};

std::vector<double> values_of(const std::map<std::int64_t, double>& m) {
  std::vector<double> v;
  for (const auto& [k, x] : m) v.push_back(x);
  return v;
}

double sum_of(const std::map<std::int64_t, double>& m) {
  double s = 0;
  for (const auto& [k, x] : m) s += x;
  return s;
}

const char* const kReplayLayers[] = {
    "tuner.shape_cost", "codegen.generate", "simcl.buffer", "layout.pack",
    "kernelir.launch",  "layout.unpack",    "hostblas.oracle"};

/// Fills the layer metrics that come from the span tree.
void layer_metrics_from_spans(const Tracer& tr, const LayerAcc& acc,
                              bool vm, Report& rep) {
  const auto p50 = [&](const char* name) {
    return percentile(values_of(tr.per_request_ms(name)), 0.5);
  };
  rep.set("codegen.generate_ms.p50", p50("codegen.generate"));
  rep.set("tuner.shape_cost_us.p50", 1e3 * p50("tuner.shape_cost"));
  rep.set("kernelir.compile_ms.p50", p50("kernelir.compile"));
  rep.set("simcl.buffer_ms.p50", p50("simcl.buffer"));
  const auto pack = tr.per_request_ms("layout.pack");
  if (pack.empty()) {
    rep.na("layout.pack_ms.p50");
    rep.na("layout.unpack_ms.p50");
    rep.na("layout.pack_gbs");
  } else {
    rep.set("layout.pack_ms.p50", p50("layout.pack"));
    rep.set("layout.unpack_ms.p50", p50("layout.unpack"));
    rep.set("layout.pack_gbs", acc.packed_bytes / (1e-3 * sum_of(pack)) * 1e-9);
  }
  rep.set(vm ? "kernelir.vm_launch_ms.p50" : "kernelir.launch_ms.p50",
          p50("kernelir.launch"));
  rep.na(vm ? "kernelir.launch_ms.p50" : "kernelir.vm_launch_ms.p50");
  rep.set("kernelir.launch_gflops", acc.launch_flops / acc.launch_s * 1e-9);
  rep.set("kernelir.frac_host_peak", acc.launch_flops / acc.peak_weighted_s);
  rep.set("kernelir.flops_per_byte", acc.launch_flops / acc.launch_bytes);
  const auto oracle = tr.per_request_ms("hostblas.oracle");
  if (oracle.empty()) {
    rep.na("hostblas.oracle_ms.p50");
    rep.na("hostblas.oracle_gflops");
  } else {
    rep.set("hostblas.oracle_ms.p50", p50("hostblas.oracle"));
    rep.set("hostblas.oracle_gflops",
            acc.oracle_flops / (1e-3 * sum_of(oracle)) * 1e-9);
  }
  // blas self time: the engine call minus every replayed layer call. The
  // replay's compile lookup is excluded: the engine makes it inside launch.
  // When verifying, the difference between the engine's and the replay's
  // oracle run (hundreds of ms, a few % apart) swamps it, so it is n/a.
  if (oracle.empty()) {
    std::map<std::int64_t, double> covered;
    for (const char* layer : kReplayLayers)
      for (const auto& [id, ms] : tr.per_request_ms(layer)) covered[id] += ms;
    std::vector<double> self;
    for (const auto& [id, ms] : tr.per_request_ms("blas.gemm"))
      self.push_back(ms - covered[id]);
    rep.set("blas.self_ms.p50", percentile(self, 0.5));
  } else {
    rep.na("blas.self_ms.p50");
  }
  rep.set("blas.direct_share", double(acc.direct) / double(acc.calls));
  rep.set("blas.direct_calls", double(acc.direct));
  const double untraced = percentile(acc.untraced_ms, 0.5);
  rep.set("trace.overhead_pct",
          100.0 * (percentile(acc.gemm_ms, 0.5) - untraced) / untraced);
  rep.notes.push_back("traced requests: " + std::to_string(acc.calls) +
                      " (" + std::to_string(acc.direct) + " direct)");
}

/// Reads the cold JIT compile times the prepare pass recorded.
void report_jit_cold(const std::string& root, Report& rep) {
  std::ifstream f(root + "/jit/cold_s.tsv");
  std::vector<double> cold;
  std::string name;
  double s = 0;
  while (f >> name >> s) {
    cold.push_back(s);
    rep.notes.push_back("jit_cold_s " + name + " " + num(s));
  }
  if (cold.empty()) {
    rep.fail("no cold JIT times in " + root + "/jit/cold_s.tsv");
    return;
  }
  rep.set("kernelir.jit_cold_s.p50", percentile(cold, 0.5));
  rep.set("kernelir.jit_cold_s.max", *std::max_element(cold.begin(), cold.end()));
}

/// Program cache hit ratio over the traced section, from the library's own
/// interp.* counters (hits over hits plus misses).
void report_cache_ratio(bool native, Report& rep) {
  const gt::Json m = gt::trace::metrics_json();
  const gt::Json& c = m.at("counters");
  const auto get = [&](const char* k) {
    return c.contains(k) ? static_cast<double>(c.at(k).as_int()) : 0.0;
  };
  const double hits = native ? get("interp.native_hits") : get("interp.cache_hit");
  const double misses = native ? get("interp.native_disk_hits") +
                                     get("interp.native_compiles") +
                                     get("interp.native_fallback")
                               : get("interp.cache_miss");
  rep.set("kernelir.cache_hit_ratio", hits / (hits + misses));
  if (native && get("interp.native_fallback") != 0) {
    rep.fail("interp.native_fallback is nonzero: the VM ran, not native code");
  }
}

/// Host FMA peak (SP, DP) on the pinned thread count, for frac_host_peak:
/// the best of three short measurements, as a peak is what the host can
/// reach when nothing else contends for it.
std::pair<double, double> measure_peaks(Report& rep) {
  const int threads = gt::configured_threads();
  double sp = 0, dp = 0;
  for (int i = 0; i < 3; ++i) {
    sp = std::max(sp, measure_fma_peak_gflops(true, threads, 0.2));
    dp = std::max(dp, measure_fma_peak_gflops(false, threads, 0.2));
  }
  rep.set("host.fma_peak_gflops", dp);
  rep.notes.push_back("host FMA peak GFlop/s on " + std::to_string(threads) +
                      " threads: SP " + num(sp) + ", DP " + num(dp));
  return {sp, dp};
}

/// Replays one request with spans and checks the replayed C against the
/// engine's, bit for bit.
template <typename T>
void traced_request(Tracer& tr, const Request& r, GemmEngine& e, bool verify,
                    std::uint64_t seed, double peak_sp, double peak_dp,
                    LayerAcc& acc, Report& rep) {
  // The untraced reference call for the tracing overhead goes first on
  // even requests and after the traced call on odd ones, so warm caches
  // favour neither side.
  Operands<T> op = make_operands<T>(r);
  const auto untraced = [&] {
    gt::trace::set_enabled(false);
    acc.untraced_ms.push_back(timed_call<T>(r, e, verify, seed, rep, &op));
    gt::trace::set_enabled(true);
  };
  if (r.id % 2 == 0) untraced();
  const int root = tr.begin("request", -1, r.id);
  Matrix<T> Cg = op.Cin;
  {
    Scope g(&tr, "blas.gemm", root, r.id);
    e.gemm<T>(gt::trans_a(r.type), gt::trans_b(r.type), r.M, r.N, r.K,
              static_cast<T>(r.alpha), op.A, op.B, static_cast<T>(r.beta), Cg,
              verify);
  }
  acc.gemm_ms.push_back(
      1e-6 * double(tr.spans().back().end_ns - tr.spans().back().start_ns));
  if (r.id % 2 != 0) untraced();
  Matrix<T> Cr = op.Cin;
  ReplayStats st;
  {
    Scope rp(&tr, "replay", root, r.id);
    st = replay_gemm<T>(tr, rp.id(), r, e, op.A, op.B, Cr, verify);
  }
  tr.end(root);

  if (std::memcmp(Cg.data(), Cr.data(), Cg.size() * sizeof(T)) != 0 ||
      std::memcmp(Cg.data(), op.C.data(), Cg.size() * sizeof(T)) != 0) {
    rep.fail("request " + std::to_string(r.id) +
             ": replayed C differs from GemmEngine::gemm's C");
  }
  if (verify && !(st.oracle_error >= 0 &&
                  st.oracle_error <= gt::hostblas::gemm_tolerance<T>(r.K))) {
    rep.fail("request " + std::to_string(r.id) +
             ": replayed C differs from the hostblas oracle");
  }
  ++acc.calls;
  acc.direct += st.direct ? 1 : 0;
  acc.launch_flops += st.launch_flops;
  acc.launch_bytes += st.launch_bytes;
  acc.packed_bytes += st.packed_bytes;
  if (verify) acc.oracle_flops += r.flops();
  // Launch time of this request (the last kernelir.launch span).
  for (auto it = tr.spans().rbegin(); it != tr.spans().rend(); ++it)
    if (std::string(it->name) == "kernelir.launch") {
      const double s = 1e-9 * double(it->end_ns - it->start_ns);
      acc.launch_s += s;
      acc.peak_weighted_s +=
          s * 1e9 * (std::is_same_v<T, float> ? peak_sp : peak_dp);
      break;
    }
}

void run_gemm_traced(const std::string& w, std::uint64_t seed,
                     double seconds, const std::string& root, JitState& jit,
                     Report& rep, Tracer& tr) {
  const bool verify = w == "verify_large";
  GemmSetup s = gemm_setup(jit, rep);
  rep.set("kernelir.jit_warm_ms", percentile(s.warm_ms, 0.5));
  const auto [peak_sp, peak_dp] = measure_peaks(rep);
  gt::trace::reset();
  gt::trace::set_enabled(true);
  LayerAcc acc;
  const std::int64_t t0 = now_ns();
  std::int64_t round = 0;
  while (round == 0 || 1e-9 * double(now_ns() - t0) < seconds) {
    for (const Request& r : gemm_round(w, seed, round)) {
      ensure_warm(jit, r, s.engines->get(r.device), *s.engines, rep);
      with_prec(r.prec, [&]<typename T>() {
        traced_request<T>(tr, r, s.engines->get(r.device), verify, seed,
                          peak_sp, peak_dp, acc, rep);
      });
    }
    ++round;
  }
  report_cache_ratio(true, rep);
  gt::trace::set_enabled(false);
  layer_metrics_from_spans(tr, acc, false, rep);
  report_jit_cold(root, rep);
  // gemm_mixed's traced run also probes the serve and tuner layers.
  if (w != "gemm_mixed")
    for (const char* k :
         {"tuner.strategy_s", "tuner.candidates_per_s", "serve.warmup_s",
          "serve.estimates_s", "serve.run_s", "serve.executed", "serve.shed",
          "serve.expired"})
      rep.na(k);
}

// ------------------------------------------------------------ serve workload

gt::serve::WorkloadSpec serve_spec(std::uint64_t trace_seed) {
  gt::serve::WorkloadSpec spec;
  spec.seed = trace_seed;
  spec.requests = kServeTraceRequests;
  spec.rate_rps = kServeRate;
  spec.devices = bench_devices();
  return spec;
}

using Trace = std::vector<gt::serve::GemmRequest>;

/// The serve probe's traces: trace i is generate_workload with a seed
/// derived from the run seed and i.
std::vector<Trace> serve_traces(std::uint64_t seed) {
  std::vector<Trace> traces;
  for (int i = 0; i < kServeTraces; ++i)
    traces.push_back(gt::serve::generate_workload(
        serve_spec(splitmix(seed) + static_cast<std::uint64_t>(i))));
  return traces;
}

gt::serve::AsyncOptions serve_async_options(std::uint64_t seed) {
  gt::serve::AsyncOptions a;
  a.execute_max_n = kServeExecuteMaxN;
  a.result_seed = seed;
  return a;
}

gt::serve::ServeOptions serve_options() {
  gt::serve::ServeOptions o;
  o.threads = gt::configured_threads();
  o.tune_strategy = kServeStrategy;
  o.tune_candidates = kServeTuneCandidates;
  return o;
}

Request as_request(const gt::serve::GemmRequest& g, DeviceId dev) {
  Request r;
  r.id = g.id;
  r.device = dev;
  r.prec = g.prec;
  r.type = g.type;
  r.M = g.M;
  r.N = g.N;
  r.K = g.K;
  r.alpha = 1;
  r.beta = 0;
  r.data_seed = static_cast<std::uint64_t>(g.id);
  return r;
}

bool executable(const gt::serve::GemmRequest& g) {
  return std::max({g.M, g.N, g.K}) <= kServeExecuteMaxN;
}

/// Server construction, warmup, guided per-class tuning (estimates) and
/// the bytecode compile of every kernel the executors can launch, each
/// phase a span.
std::unique_ptr<gt::serve::GemmServer> serve_setup(
    const std::vector<Trace>& traces, Tracer& tr) {
  Trace reqs;
  for (const Trace& t : traces) reqs.insert(reqs.end(), t.begin(), t.end());
  std::unique_ptr<gt::serve::GemmServer> server;
  {
    Scope sc(&tr, "serve.construct", -1, -1);
    server = std::make_unique<gt::serve::GemmServer>(bench_devices(),
                                                     serve_options());
  }
  {
    Scope sc(&tr, "serve.warmup", -1, -1);
    server->warmup();
  }
  {
    Scope sc(&tr, "serve.estimates", -1, -1);
    server->ensure_estimates(reqs);
  }
  {
    Scope sc(&tr, "kernelir.precompile", -1, -1);
    std::set<std::string> seen;
    for (const auto& g : reqs) {
      if (!executable(g)) continue;
      for (const auto& e : server->engines()) {
        const KernelKey k = key_for(as_request(g, e->device_id()), *e);
        if (seen.insert(k.name()).second) ir::get_or_compile(k.make(*e));
      }
    }
  }
  return server;
}

/// Checks the accounting invariant and a seeded sample of executed
/// requests: rebuilt operands, C against hostblas and the benchmark's own
/// check, and the FNV-1a hash of C against the server's result_hash.
void check_serve(const Trace& reqs, const gt::serve::AsyncOutcome& out,
                 gt::serve::GemmServer& srv, std::uint64_t seed, int samples,
                 Report& rep) {
  std::int64_t gen = 0, acc = 0;
  for (const auto& [cls, a] : out.classes) {
    gen += a.generated;
    acc += a.completed + a.shed_queue_full + a.shed_infeasible + a.expired;
    if (a.generated !=
        a.completed + a.shed_queue_full + a.shed_infeasible + a.expired) {
      rep.fail("accounting invariant broken for " + gt::tuner::to_string(cls));
    }
  }
  if (gen != static_cast<std::int64_t>(reqs.size()) || acc != gen) {
    rep.fail("accounting does not cover every request");
  }
  std::vector<std::size_t> executed;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (out.result_hash[i] != 0) executed.push_back(i);
  gt::Rng rng(splitmix(seed ^ 0x5e7e));
  for (int k = 0; k < samples && !executed.empty(); ++k) {
    const std::size_t i = executed[rng.next_below(executed.size())];
    const auto& g = reqs[i];
    const int d = out.base.responses[i].device_index;
    GemmEngine& e = *srv.engines()[static_cast<std::size_t>(d)];
    const Request r = as_request(g, e.device_id());
    with_prec(r.prec, [&]<typename T>() {
      // Operands as the serve executors build them: A then B from
      // Rng(result_seed ^ splitmix(id)), C zero, alpha 1, beta 0.
      gt::Rng orng(seed ^ splitmix(static_cast<std::uint64_t>(g.id)));
      const bool ta = gt::trans_a(g.type) == Transpose::Yes;
      const bool tb = gt::trans_b(g.type) == Transpose::Yes;
      Operands<T> op;
      op.A = Matrix<T>(ta ? g.K : g.M, ta ? g.M : g.K);
      op.B = Matrix<T>(tb ? g.N : g.K, tb ? g.K : g.N);
      op.A.fill_random(orng);
      op.B.fill_random(orng);
      op.Cin = Matrix<T>(g.M, g.N);
      op.C = op.Cin;
      e.gemm<T>(gt::trans_a(g.type), gt::trans_b(g.type), g.M, g.N, g.K, T(1),
                op.A, op.B, T(0), op.C);
      Matrix<T> ref = op.Cin;
      gt::hostblas::gemm_parallel(gt::trans_a(g.type), gt::trans_b(g.type),
                                  g.M, g.N, g.K, T(1), op.A, op.B, T(0), ref);
      std::string bad = check_result(r, op, seed);
      if (bad.empty() && gt::max_abs_diff(op.C, ref) >
                             gt::hostblas::gemm_tolerance<T>(g.K))
        bad = "differs from hostblas";
      if (bad.empty() &&
          fnv1a(op.C.data(), op.C.size() * sizeof(T)) != out.result_hash[i])
        bad = "result_hash does not match the hash of C";
      if (!bad.empty()) {
        rep.fail("serve request " + std::to_string(g.id) + ": " + bad);
      }
    });
  }
}

/// The serve and tuner layers, probed in gemm_mixed's traced run on the
/// bytecode backend: a GemmServer with guided warmup over seeded
/// generate_workload traces, the strategy search replayed from outside,
/// one untraced and one traced AsyncServer::run (virtual mode, requests
/// with largest extent <= 64 executed on the VM) and VM layer replays of
/// sampled executed requests. Spans go to their own tracer.
void serve_probe(std::uint64_t seed, Report& rep, Tracer& tr) {
  ir::set_backend_override(ir::Backend::Bytecode);
  const std::vector<Trace> traces = serve_traces(seed);
  const Trace& reqs = traces[0];
  const auto spec = serve_spec(seed);
  const auto server = serve_setup(traces, tr);
  rep.set("serve.warmup_s", 1e-3 * sum_of(tr.per_request_ms("serve.warmup")));
  rep.set("serve.estimates_s",
          1e-3 * sum_of(tr.per_request_ms("serve.estimates")));

  // Strategy search on a seeded sample of the trace's shape classes, with
  // the server's own settings.
  {
    std::vector<gt::serve::ShapeClass> classes;
    for (const auto& g : reqs) {
      const auto c = gt::serve::ShapeClass::of(g);
      if (std::find(classes.begin(), classes.end(), c) == classes.end())
        classes.push_back(c);
    }
    gt::Rng rng(splitmix(seed ^ 0x57a7));
    const auto spec_s = gt::tuner::strategy::parse_strategy_spec(kServeStrategy);
    std::vector<double> secs;
    double measured = 0, total_s = 0;
    gt::tuner::SearchOptions so;
    so.enumeration.max_candidates = kServeTuneCandidates;
    so.threads = gt::configured_threads();
    for (DeviceId d : bench_devices()) {
      gt::tuner::SearchEngine se(d);
      {
        // The candidate-space walk is memoized per engine, as in the
        // server; time it apart from the per-class searches.
        Scope sc(&tr, "tuner.enumerate", -1, -1);
        for (Precision p : {Precision::SP, Precision::DP})
          se.candidate_space(p, so);
      }
      for (int k = 0; k < kStrategyReplayClasses; ++k) {
        so.shape = classes[rng.next_below(classes.size())];
        gt::tuner::strategy::StrategyStats st;
        const int sp = tr.begin("tuner.strategy", -1, -1);
        gt::tuner::strategy::run_strategy(se, so.shape->prec, so, spec_s, &st);
        tr.end(sp);
        const SpanRec& span = tr.spans()[static_cast<std::size_t>(sp)];
        secs.push_back(1e-9 * double(span.end_ns - span.start_ns));
        total_s += secs.back();
        measured += static_cast<double>(st.measured);
      }
    }
    rep.set("tuner.strategy_s", percentile(secs, 0.5));
    rep.set("tuner.candidates_per_s", measured / total_s);
  }

  gt::serve::AsyncServer async(*server, serve_async_options(seed));
  const auto base = async.run(reqs, spec.max_batch, spec.queue_capacity);
  gt::trace::set_enabled(true);
  gt::serve::AsyncOutcome out;
  {
    Scope sc(&tr, "serve.run", -1, -1);
    out = async.run(reqs, spec.max_batch, spec.queue_capacity);
  }
  rep.set("serve.run_s", 1e-3 * sum_of(tr.per_request_ms("serve.run")));
  rep.set("serve.executed", double(out.executed));
  rep.set("serve.shed", double(out.shed_queue_full + out.shed_infeasible));
  rep.set("serve.expired", double(out.expired));
  rep.attempted += static_cast<std::int64_t>(reqs.size());
  rep.failed += out.shed_queue_full + out.shed_infeasible + out.expired;
  if (out.result_hash != base.result_hash)
    rep.fail("traced and untraced serve runs hash different results");
  check_serve(reqs, out, *server, seed, 8, rep);

  // VM layer replay of sampled executed requests, each checked bit for bit
  // against GemmEngine::gemm.
  LayerAcc acc;
  std::vector<std::size_t> executed;
  for (std::size_t i = 0; i < reqs.size(); ++i)
    if (out.result_hash[i] != 0) executed.push_back(i);
  gt::Rng rng(splitmix(seed ^ 0x7e9));
  const std::int64_t t0 = now_ns();
  while (!executed.empty() &&
         (acc.calls < 8 ||
          1e-9 * double(now_ns() - t0) < kServeReplaySeconds)) {
    const std::size_t i = executed[rng.next_below(executed.size())];
    const int d = out.base.responses[i].device_index;
    GemmEngine& e = *server->engines()[static_cast<std::size_t>(d)];
    Request r = as_request(reqs[i], e.device_id());
    r.id = acc.calls;  // one span tree per replayed sample
    with_prec(r.prec, [&]<typename T>() {
      traced_request<T>(tr, r, e, false, seed, 0, 0, acc, rep);
    });
  }
  gt::trace::set_enabled(false);
  rep.set("kernelir.vm_launch_ms.p50",
          percentile(values_of(tr.per_request_ms("kernelir.launch")), 0.5));
  rep.notes.push_back("serve probe: " + std::to_string(reqs.size()) +
                      "-request trace, " + std::to_string(out.executed) +
                      " executed on the VM by " +
                      std::to_string(server->engines().size()) +
                      " executors; " + std::to_string(acc.calls) +
                      " VM layer replays");
}

// ------------------------------------------------------------ prepare

/// Builds, cold and untimed by any workload metric, every kernel the scan
/// finds into gemm_mixed's private cache directory, records each build
/// time in jit/cold_s.tsv, and copies the objects into verify_large's.
int prepare(const std::string& root) {
  const std::string dir = root + "/jit/gemm_mixed";
  fs::remove_all(root + "/jit");
  fs::create_directories(dir);
  fs::create_directories(root + "/jit/verify_large");
  ir::set_backend_override(ir::Backend::Native);
  ir::set_jit_cache_dir(dir);
  Engines engines;
  std::vector<KernelKey> keys;
  for (const auto& [name, k] :
       scan_keys(engines, {"gemm_mixed", "verify_large"}))
    keys.push_back(k);
  const auto cold = cold_compile(keys, engines);
  std::ostringstream tsv;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    tsv << keys[i].name() << "\t" << num(cold[i].first) << "\n";
    std::cerr << "perfbench: cold JIT " << keys[i].name() << " "
              << cold[i].first << " s\n";
    fs::copy_file(cold[i].second, root + "/jit/verify_large/" +
                                      fs::path(cold[i].second).filename().string());
  }
  const std::string tmp = root + "/jit/cold_s.tsv.tmp";
  std::ofstream(tmp) << tsv.str();
  fs::rename(tmp, root + "/jit/cold_s.tsv");
  return 0;
}

// ------------------------------------------------------------ self test

int self_test() {
  int bad = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    bad += ok ? 0 : 1;
  };
  const auto same = [](const std::vector<Request>& a,
                       const std::vector<Request>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a[i].id != b[i].id || a[i].device != b[i].device ||
          a[i].prec != b[i].prec || a[i].type != b[i].type ||
          a[i].M != b[i].M || a[i].N != b[i].N || a[i].K != b[i].K ||
          a[i].alpha != b[i].alpha || a[i].beta != b[i].beta ||
          a[i].data_seed != b[i].data_seed)
        return false;
    return true;
  };
  for (std::int64_t round : {0, 3}) {
    expect(same(mixed_round(7, round), mixed_round(7, round)) &&
               !same(mixed_round(7, round), mixed_round(8, round)),
           "gemm_mixed: same seed same requests, other seed other requests");
    expect(same(verify_round(7, round), verify_round(7, round)) &&
               !same(verify_round(7, round), verify_round(8, round)),
           "verify_large: same seed same requests, other seed other requests");
  }
  const auto serve_key = [](std::uint64_t seed) {
    std::ostringstream s;
    const std::vector<Trace> traces = serve_traces(seed);
    for (const auto& g : traces[1])
      s << g.id << ' ' << int(g.type) << ' ' << int(g.prec) << ' ' << g.M
        << ' ' << g.N << ' ' << g.K << ' ' << g.arrival_seconds << ';';
    return s.str();
  };
  expect(serve_key(7) == serve_key(7) && serve_key(7) != serve_key(8),
         "serve probe: same seed same trace, other seed other trace");

  // Stratification: every round holds the same (combo, size strata) mix.
  const auto strata = [](const std::vector<Request>& rs) {
    std::vector<std::tuple<int, int, int, int, int, int>> v;
    for (const Request& r : rs)
      v.emplace_back(int(r.device), int(r.prec), int(r.type), int(r.M / 16),
                     int(r.N / 16), int(r.K / 16));
    std::sort(v.begin(), v.end());
    return v;
  };
  expect(strata(mixed_round(1, 0)) == strata(mixed_round(2, 5)) &&
             strata(verify_round(1, 0)) == strata(verify_round(2, 5)),
         "every round has the same size strata per combo, for any seed");

  // The result check accepts the engine's C and catches a corrupted one.
  gt::ir::set_backend_override(gt::ir::Backend::Bytecode);
  Engines engines;
  for (const Request& r0 : mixed_round(3, 0)) {
    if (r0.M >= 256) continue;
    Request r = r0;
    with_prec(r.prec, [&]<typename T>() {
      Operands<T> op = make_operands<T>(r);
      engines.get(r.device).gemm<T>(
          gt::trans_a(r.type), gt::trans_b(r.type), r.M, r.N, r.K,
          static_cast<T>(r.alpha), op.A, op.B, static_cast<T>(r.beta), op.C);
      const std::string name = std::string(gt::codegen::to_string(r.prec)) +
                               "." + gt::to_string(r.type);
      expect(check_result(r, op, 1).empty(), name + ": correct C accepted");
      gt::Rng rng(r.data_seed);
      const auto i = static_cast<index_t>(rng.next_below(r.M));
      const auto j = static_cast<index_t>(rng.next_below(r.N));
      // Beyond the check's worst-case rounding bound at these sizes.
      op.C.at(i, j) += static_cast<T>(std::is_same_v<T, float> ? 0.25 : 1e-6);
      expect(!check_result(r, op, 1).empty(),
             name + ": one corrupted C entry caught");
    });
    if (bad > 0 || r0.id > 20) break;
  }
  return bad == 0 ? 0 : 1;
}

// ------------------------------------------------------------ output

void emit(const Report& rep, const std::vector<MetricDef>& defs,
          const std::string& identity) {
  std::cout << "identity " << identity << "\n";
  for (const std::string& n : rep.notes) std::cout << "note " << n << "\n";
  for (const MetricDef& d : defs) {
    const auto it = rep.values.find(d.name);
    std::cout << "metric " << d.name << " = "
              << (it == rep.values.end() ? std::string("missing")
                                         : num(it->second))
              << " " << d.unit
              << (rep.not_applicable.count(d.name) ? "  (n/a on this workload)"
                                                   : "")
              << "\n";
  }
  for (const std::string& u : rep.unbounded)
    std::cout << "metric " << u << "  (printed only, not bounded)\n";
  const double fail_ratio =
      rep.attempted > 0 ? double(rep.failed) / double(rep.attempted) : 1.0;
  std::cout << "metric fail_ratio = " << num(fail_ratio) << " ratio ("
            << rep.failed << " failed of " << rep.attempted << " attempted)\n";
  for (const std::string& e : rep.errors) std::cout << "error " << e << "\n";

  bool complete = true;
  std::ostringstream js;
  js << "{\"correct\": "
     << (rep.failed == 0 && rep.errors.empty() ? "true" : "false")
     << ", \"attempted\": " << std::max<std::int64_t>(1, rep.attempted)
     << ", \"failed\": " << rep.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = rep.values.find(defs[i].name);
    if (it == rep.values.end()) complete = false;
    js << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
       << (it == rep.values.end() ? "0" : num(it->second)) << ", \"unit\": \""
       << defs[i].unit << "\"}";
  }
  js << "}}";
  if (!complete) std::cout << "error some metrics were not measured\n";
  std::cout << js.str() << std::endl;
}

int run(int argc, char** argv) {
  std::string workload, root = ".bench_build/perfbench", mode = "run";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") workload = next();
    else if (a == "--seed") seed = std::stoull(next());
    else if (a == "--seconds") seconds = std::stod(next());
    else if (a == "--trace") trace = std::stoi(next());
    else if (a == "--root") root = next();
    else if (a == "--prepare" || a == "--self-test" || a == "--list-metrics")
      mode = a;
    else throw std::runtime_error("unknown argument " + a);
  }
  root = fs::absolute(root).string();
  if (mode == "--prepare") return prepare(root);
  if (mode == "--self-test") return self_test();
  if (mode == "--list-metrics") {
    for (const MetricDef& d : e2e_metrics())
      std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
    for (const MetricDef& d : layer_metrics())
      std::cout << "per_layer " << d.name << " " << d.unit << "\n";
    return 0;
  }
  if (workload != "gemm_mixed" && workload != "verify_large")
    throw std::runtime_error("unknown workload '" + workload + "'");
  if (trace != 0 && trace != 1) throw std::runtime_error("--trace is 0 or 1");

  gt::set_thread_override(pinned_threads());
  Report rep;
  Tracer tr, serve_tr;
  JitState jit;
  jit.dir = root + "/jit/" + workload;
  jit.objects_at_start = count_objects(jit.dir);
  if (jit.objects_at_start == 0)
    throw std::runtime_error("JIT cache " + jit.dir +
                             " is empty; run --prepare first");
  ir::set_backend_override(ir::Backend::Native);
  ir::set_jit_cache_dir(jit.dir);
  {
    Engines engines;
    jit.scan = scan_keys(engines, {workload});
  }
  if (trace) run_gemm_traced(workload, seed, seconds, root, jit, rep, tr);
  else run_gemm_untraced(workload, seed, seconds, jit, rep);
  const std::size_t grown = count_objects(jit.dir) - jit.objects_at_start;
  const std::string jit_state =
      "warm private dir, " + std::to_string(jit.objects_at_start) +
      " objects at start, " + std::to_string(jit.built_in_run) +
      " built untimed during the run";
  if (grown != jit.built_in_run)
    rep.fail("a kernel was JIT-compiled inside a timed call");
  // Identity of the measured program, before the probe switches backend.
  const std::string identity = identity_json(workload, seed, trace, jit_state);
  if (trace && workload == "gemm_mixed") serve_probe(seed, rep, serve_tr);
  rep.set("peak_rss_mb", peak_rss_mb());
  if (trace) {
    fs::create_directories(root + "/spans");
    const std::string path =
        root + "/spans/" + workload + "-seed" + std::to_string(seed);
    tr.write_json(path + ".json", identity);
    if (!serve_tr.spans().empty())
      serve_tr.write_json(path + "-serve.json", identity);
    rep.notes.push_back("spans: " + std::to_string(tr.spans().size()) + " + " +
                        std::to_string(serve_tr.spans().size()) +
                        " written to " + path + "*.json");
  }
  emit(rep, trace ? layer_metrics() : e2e_metrics(), identity);
  return rep.failed == 0 && rep.errors.empty() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
