// Launch plan + bytecode virtual machine.
//
// LaunchPlan is the shared immutable per-launch setup both interpreter
// backends execute against: it validates the geometry and arguments once
// on the calling thread and resolves the storage layout (symbol counts,
// typed buffer views), so per-worker execution contexts only allocate
// scratch instead of re-validating per Machine.
//
// VmMachine executes a CompiledKernel over a contiguous range of
// work-groups. Like the tree-walker's Machine, each worker thread owns its
// own VmMachine (registers, slabs, divergence mask, counters), sharing only
// the plan, the program, and the global buffers — so buffers and counters
// are bit-identical to the serial run at any thread count.
//
// Dispatch is classic threaded code: the program is pre-decoded once per
// machine into a table of computed-goto handler addresses (the GNU
// labels-as-values extension, which GCC and Clang provide), with hot
// opcodes specialized on their baked operand shapes (lane width, f32
// rounding, divergence masking, operand uniformity). The tree walker is
// the reference it must match in buffers, counters and error messages.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "kernelir/compile.hpp"
#include "kernelir/interp.hpp"

namespace gemmtune::ir {

/// Validated launch geometry and resolved argument views, computed once per
/// launch and shared (read-only) by every worker Machine of both backends.
struct LaunchPlan {
  /// A kernel argument resolved for execution: raw typed pointer for
  /// buffers, immediate values for scalars.
  struct ArgView {
    double* f64 = nullptr;    ///< element pointer when the buffer is F64
    float* f32 = nullptr;     ///< element pointer when the buffer is F32
    std::int64_t elems = 0;   ///< buffer length in elements
    std::int64_t i = 0;       ///< Int argument value
    double f = 0;             ///< Float argument value
  };

  const Kernel* kernel = nullptr;
  std::array<std::int64_t, 2> global{}, local{};
  const std::vector<ArgValue>* args = nullptr;
  std::int64_t ngx = 0, ngroups = 0, items_per_group = 0;
  int n_vars = 0, n_parrays = 0, n_larrays = 0;  ///< tree storage counts
  std::vector<ArgView> views;

  /// Validates the launch (same checks and messages as the interpreter has
  /// always thrown) and resolves the layout. Throws gemmtune::Error on a
  /// malformed launch. The kernel and argument vectors must outlive the
  /// plan.
  LaunchPlan(const Kernel& k, std::array<std::int64_t, 2> global,
             std::array<std::int64_t, 2> local,
             const std::vector<ArgValue>& args);
};

/// The bytecode VM has one dispatch, threaded code. The enum, its resolver
/// and its name exist only so run records (perfbench's report) can keep
/// naming the dispatch they measured.
enum class VmDispatch { Threaded };

/// Always VmDispatch::Threaded.
VmDispatch resolve_vm_dispatch();

const char* to_string(VmDispatch d);

/// One bytecode execution context (registers, slabs, mask, counters); owns
/// all mutable state, so work-group parallelism gives each worker its own
/// VmMachine over a disjoint slice of the group space.
class VmMachine {
 public:
  VmMachine(const CompiledKernel& prog, const LaunchPlan& plan);

  /// Runs work-groups [begin, end) of the row-major linearized group space
  /// and returns the counters accumulated over them.
  Counters run_range(std::int64_t begin, std::int64_t end);

 private:
  struct Ops;  // shared op bodies for the specialized threaded handlers
  void run_group(std::int64_t gx, std::int64_t gy);
  void run_group_threaded();
  std::int64_t builtin_u(int fn_dim) const;

  const CompiledKernel& p_;
  const LaunchPlan& plan_;
  int nitems_ = 0;
  std::int64_t gx_ = 0, gy_ = 0;
  std::vector<std::int64_t> u_;
  std::vector<std::int64_t> vi_;   ///< reg-major: vi_[reg * nitems + item]
  std::vector<double> vf_;         ///< vf_[base * nitems + item * width + l]
  std::vector<double> parr_;       ///< parr_[item * parr_doubles + off]
  std::vector<double> larr_;
  std::vector<char> mask_;
  int active_ = 0;
  struct MaskFrame {
    std::vector<char> saved;
    std::int32_t cond = 0;
    int saved_active = 0;
  };
  std::vector<MaskFrame> mask_stack_;
  int mask_depth_ = 0;
  Counters counters_;
  std::vector<const void*> tcode_; ///< pre-decoded handler addresses
};

}  // namespace gemmtune::ir
