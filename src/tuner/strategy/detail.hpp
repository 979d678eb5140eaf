// The guided strategies and their shared machinery: the measured-candidate
// record with its deterministic ordering, the hand-off of a measured set to
// SearchEngine::select, and the parameter grid the stochastic strategies
// move on. Internal to gemmtune_strategy.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tuner/search.hpp"
#include "tuner/strategy/strategy.hpp"

namespace gemmtune::tuner::strategy::detail {

/// The guided strategies, one per translation unit; run_strategy switches
/// over these (exhaustive is SearchEngine::tune itself). Each records its
/// counters in `st`; run_strategy sets kind and fraction_measured.
TunedKernel model_topk(const SearchEngine& engine, codegen::Precision prec,
                       const SearchOptions& opt, const StrategySpec& spec,
                       StrategyStats& st);
TunedKernel anneal(const SearchEngine& engine, codegen::Precision prec,
                   const SearchOptions& opt, const StrategySpec& spec,
                   StrategyStats& st);
TunedKernel pso(const SearchEngine& engine, codegen::Precision prec,
                const SearchOptions& opt, const StrategySpec& spec,
                StrategyStats& st);

/// splitmix64-style stream split: derives an independent per-chain /
/// per-particle seed from the user seed, so parallel chains never share an
/// RNG stream and results cannot depend on scheduling.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One measured candidate. `index` is its position in the engine's
/// candidate space (SIZE_MAX for grid points the subsampled space does not
/// contain); `key` is the stable KernelParams::key() string. Ordering is
/// (GFlop/s desc, index asc, key asc) — fully deterministic.
struct Measured {
  codegen::KernelParams params;
  double gflops = 0;
  std::size_t index = static_cast<std::size_t>(-1);
  std::string key;
};

inline bool better(const Measured& a, const Measured& b) {
  if (a.gflops != b.gflops) return a.gflops > b.gflops;
  if (a.index != b.index) return a.index < b.index;
  return a.key < b.key;
}

/// Orders a strategy's measured set by better(), drops adjacent records of
/// the same kernel, and hands the result to SearchEngine::select — the
/// selection SearchEngine::tune makes from its stage-1 ranking.
TunedKernel select_measured(const SearchEngine& engine,
                            const SearchOptions& opt,
                            std::vector<Measured> measured,
                            SearchStats* stats);

/// The 14-axis discretized parameter grid (the enumerator's value lists
/// plus its selector dimensions). decode() applies the enumerator's
/// structural rules, the search restrictions and codegen::validate, so
/// every decodable point is a point the exhaustive walk could visit.
class Grid {
 public:
  static constexpr int kAxes = 14;
  using Coords = std::array<int, kAxes>;

  Grid(const SearchEngine& engine, const SearchOptions& opt);

  int axis_size(int axis) const { return sizes_[static_cast<std::size_t>(axis)]; }

  /// Grid point -> kernel params; nullopt when structurally invalid,
  /// restricted away, or rejected by validate().
  std::optional<codegen::KernelParams> decode(const Coords& c,
                                              codegen::Precision prec) const;

  /// Kernel params -> grid point; nullopt when a value is off-axis.
  std::optional<Coords> encode(const codegen::KernelParams& p) const;

 private:
  GridAxes axes_;
  std::array<int, kAxes> sizes_{};
  simcl::DeviceSpec dev_;
  std::optional<codegen::Algorithm> restrict_algo_;
  std::optional<bool> restrict_local_;
};

}  // namespace gemmtune::tuner::strategy::detail
