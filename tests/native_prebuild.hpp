// Test helper: builds native JIT objects concurrently, so a test's checks
// load them from the program cache instead of running the host compiler
// for one kernel after another.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/thread_pool.hpp"
#include "kernelir/compile.hpp"
#include "kernelir/kernel.hpp"
#include "kernelir/native.hpp"

namespace gemmtune {

/// Compiles every kernel's native object on ThreadPool::global() (the
/// compiler runs outside the JIT's lock). Each worker takes the next
/// kernel from a shared counter, largest emitted source first — the
/// slowest builds start first, and no worker queues a second build while
/// another sits idle. Failures are cached per kernel like any other build
/// and surface in the test's own launch.
inline void prebuild_native(const std::vector<ir::Kernel>& kernels) {
  std::vector<std::size_t> size(kernels.size()), order(kernels.size());
  for (std::size_t i = 0; i < kernels.size(); ++i)
    size[i] = ir::emit_native_source(kernels[i], *ir::get_or_compile(kernels[i]))
                  .size();
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return size[a] > size[b];
  });
  std::atomic<std::size_t> next{0};
  ThreadPool& pool = ThreadPool::global();
  pool.parallel_for(pool.size(), [&](std::int64_t, std::int64_t, int) {
    for (std::size_t i = next++; i < order.size(); i = next++)
      (void)ir::get_or_compile_native(kernels[order[i]]);
  });
}

}  // namespace gemmtune
