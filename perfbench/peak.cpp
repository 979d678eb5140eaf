// Host peak fused multiply-add rate, measured in the run that uses it.
// Built with the host's native ISA and FMA contraction (see CMakeLists.txt)
// so the loop below compiles to independent vector FMA chains.
#include <atomic>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

template <typename V, typename S>
double fma_loop(std::int64_t deadline_ns, std::uint64_t* flops_out) {
  constexpr int kChains = 12;  // covers FMA latency x issue width
  constexpr int kLanes = sizeof(V) / sizeof(S);
  V acc[kChains];
  for (int c = 0; c < kChains; ++c)
    for (int l = 0; l < kLanes; ++l) acc[c][l] = S(c + l) * S(1e-3);
  V m, a;
  for (int l = 0; l < kLanes; ++l) {
    m[l] = S(0.999999);
    a[l] = S(1e-6);
  }
  std::uint64_t iters = 0;
  while (now_ns() < deadline_ns) {
    for (int it = 0; it < 4096; ++it)
      for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * m + a;
    iters += 4096;
  }
  *flops_out = iters * kChains * kLanes * 2;
  S sum = 0;
  for (int c = 0; c < kChains; ++c)
    for (int l = 0; l < kLanes; ++l) sum += acc[c][l];
  return static_cast<double>(sum);
}

}  // namespace

double measure_fma_peak_gflops(bool single_precision, int threads,
                               double seconds) {
  typedef double v8d __attribute__((vector_size(64)));
  typedef float v16f __attribute__((vector_size(64)));
  std::vector<std::uint64_t> flops(static_cast<std::size_t>(threads), 0);
  std::atomic<double> sink{0};
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      const double s =
          single_precision
              ? fma_loop<v16f, float>(deadline,
                                      &flops[static_cast<std::size_t>(t)])
              : fma_loop<v8d, double>(deadline,
                                      &flops[static_cast<std::size_t>(t)]);
      sink.store(s, std::memory_order_relaxed);
    });
  for (auto& th : pool) th.join();
  const double wall = 1e-9 * double(now_ns() - t0);
  double total = 0;
  for (std::uint64_t f : flops) total += double(f);
  return total / wall * 1e-9;
}

}  // namespace perfbench
