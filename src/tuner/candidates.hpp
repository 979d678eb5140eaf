// Heuristic candidate enumeration for the auto-tuner (paper Section III-F:
// "We searched tens of thousands of kernel variants per single GEMM type
// ... Those many variants were heuristically chosen").
//
// The enumeration walks the cross product of discretized parameter values,
// prunes structurally invalid sets via codegen::validate, and (when the
// space exceeds the budget) subsamples deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "codegen/params.hpp"
#include "layout/block_layout.hpp"
#include "simcl/device_registry.hpp"

namespace gemmtune::tuner {

/// Enumeration controls.
struct EnumOptions {
  int max_candidates = 20000;  ///< budget after validation; must be >= 1
};

/// Statistics from one enumeration run (the paper reports that failed
/// kernels "are not counted" toward the tested variants).
struct EnumStats {
  std::int64_t raw_combinations = 0;  ///< cross-product size visited
  std::int64_t invalid = 0;           ///< rejected by validate()
  std::int64_t kept = 0;              ///< returned candidates
};

/// Enumerates valid kernel parameter sets for the device/precision. The
/// validation sweep (the cross-product walk) fans out over `threads`
/// workers (0: the process-wide pool); the list is bit-identical for every
/// thread count, because the seeded reservoir subsample runs serially in
/// walk order. Throws gemmtune::Error when opt.max_candidates < 1.
std::vector<codegen::KernelParams> enumerate_candidates(
    simcl::DeviceId id, codegen::Precision prec, const EnumOptions& opt,
    EnumStats* stats = nullptr, int threads = 0);

/// The discretized value lists the enumerator walks (operand layouts are
/// CBL and RBL). Guided strategies (annealing / PSO neighbor moves) step
/// along exactly these axes so every point they can propose is a point the
/// exhaustive walk could visit.
struct GridAxes {
  std::vector<int> Mwg, Nwg, Kwg, dim, Kwi, vw;
  std::vector<BlockLayout> layouts;
};
GridAxes grid_axes();

}  // namespace gemmtune::tuner
