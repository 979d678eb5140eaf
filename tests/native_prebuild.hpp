// Test helper: builds native JIT objects concurrently, so a test's checks
// load them from the program cache instead of running the host compiler
// for one kernel after another.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"
#include "kernelir/kernel.hpp"
#include "kernelir/native.hpp"

namespace gemmtune {

/// Compiles every kernel's native object on ThreadPool::global() (the
/// compiler runs outside the JIT's lock). Failures are cached per kernel
/// like any other build and surface in the test's own launch.
inline void prebuild_native(const std::vector<ir::Kernel>& kernels) {
  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(kernels.size()),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i)
          (void)ir::get_or_compile_native(
              kernels[static_cast<std::size_t>(i)]);
      });
}

}  // namespace gemmtune
