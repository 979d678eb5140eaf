// Particle swarm optimization over the parameter grid (CLTune-style).
//
// Particles hold continuous positions over the 14 grid axes; fitness is
// evaluated at the rounded grid point. Velocity updates use the standard
// constriction coefficients (w = 0.72, c1 = c2 = 1.49) with per-particle
// RNG streams. The swarm is updated serially in particle-index order with
// strict-> comparisons for pbest/gbest, so the run is trivially
// bit-identical for any --threads and repeated runs.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tuner/strategy/detail.hpp"

namespace gemmtune::tuner::strategy::detail {

namespace {

constexpr double kInertia = 0.72;
constexpr double kCognitive = 1.49;
constexpr double kSocial = 1.49;
constexpr std::uint64_t kParticleSalt = 0xB05E;

std::array<double, Grid::kAxes> to_pos(const Measured& m, const Grid& grid) {
  std::array<double, Grid::kAxes> pos{};
  // pbest/gbest are stored as params; their grid coordinates are always
  // recoverable because every measured point decoded from the grid.
  const auto c = grid.encode(m.params);
  for (int a = 0; a < Grid::kAxes; ++a)
    pos[static_cast<std::size_t>(a)] = static_cast<double>(
        c ? (*c)[static_cast<std::size_t>(a)] : 0);
  return pos;
}

}  // namespace

TunedKernel pso(const SearchEngine& engine, codegen::Precision prec,
                const SearchOptions& opt, const StrategySpec& spec,
                StrategyStats& st) {
  const std::int64_t budget = spec.budget > 0 ? spec.budget : 256;
  const std::vector<codegen::KernelParams> candidates =
      engine.candidate_space(prec, opt, &st.search.enumeration);
  check(!candidates.empty(), "pso: no valid candidates for device");
  st.space = static_cast<std::int64_t>(candidates.size());

  std::unordered_map<std::string, std::size_t> space_index;
  space_index.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i)
    space_index.emplace(candidates[i].key(), i);

  const Grid grid(engine, opt);
  const int particles = static_cast<int>(std::max<std::int64_t>(
      2, std::min<std::int64_t>(spec.particles, budget)));

  using Pos = std::array<double, Grid::kAxes>;
  struct Particle {
    Pos pos{}, vel{};
    Rng rng{0};
    Measured pbest;  ///< gflops 0 until a valid point is found
    bool has_pbest = false;
  };
  std::vector<Particle> swarm(static_cast<std::size_t>(particles));

  // Shared measurement memo: revisiting a grid point is free; only first
  // measurements consume the budget.
  std::unordered_map<std::string, double> memo;
  std::vector<Measured> fresh;
  std::int64_t measured_count = 0;
  const auto evaluate =
      [&](const Pos& pos) -> std::optional<Measured> {
    Grid::Coords c{};
    for (int a = 0; a < Grid::kAxes; ++a) {
      const int size = grid.axis_size(a);
      int v = static_cast<int>(std::llround(pos[static_cast<std::size_t>(a)]));
      v = std::clamp(v, 0, size - 1);
      c[static_cast<std::size_t>(a)] = v;
    }
    const auto p = grid.decode(c, prec);
    ++st.proposals;
    if (!p) {
      ++st.proposals_invalid;
      return std::nullopt;
    }
    const std::string key = p->key();
    double g = 0;
    bool first = false;
    if (const auto it = memo.find(key); it != memo.end()) {
      g = it->second;
    } else {
      // Budget exhausted: unmeasured points stay unknown rather than
      // triggering hidden extra measurements.
      if (measured_count >= budget) return std::nullopt;
      g = engine.measure_candidate(*p, opt);
      memo.emplace(key, g);
      ++measured_count;
      first = true;
    }
    if (g <= 0) return std::nullopt;
    const auto si = space_index.find(key);
    const Measured m{*p, g,
                     si != space_index.end() ? si->second
                                             : static_cast<std::size_t>(-1),
                     key};
    if (first) fresh.push_back(m);
    return m;
  };

  // Spread the swarm evenly over the candidate space (the space is
  // sorted by kernel key, so this samples structurally diverse points);
  // particle 0 starts at the Table II seed, which candidate_space appends
  // last.
  for (int j = 0; j < particles; ++j) {
    Particle& pt = swarm[static_cast<std::size_t>(j)];
    pt.rng = Rng(mix_seed(spec.seed,
                          kParticleSalt + static_cast<std::uint64_t>(j)));
    std::size_t start =
        candidates.size() <= 1
            ? 0
            : (static_cast<std::size_t>(j) * (candidates.size() - 1)) /
                  static_cast<std::size_t>(particles - 1);
    if (j == 0) start = candidates.size() - 1;
    std::optional<Grid::Coords> c;
    for (std::size_t probe = 0; probe < candidates.size() && !c; ++probe)
      c = grid.encode(candidates[(start + probe) % candidates.size()]);
    check(c.has_value(), "pso: no encodable start point");
    for (int a = 0; a < Grid::kAxes; ++a) {
      pt.pos[static_cast<std::size_t>(a)] =
          static_cast<double>((*c)[static_cast<std::size_t>(a)]);
      pt.vel[static_cast<std::size_t>(a)] =
          pt.rng.next_double(-1.0, 1.0);
    }
    if (const auto m = evaluate(pt.pos)) {
      pt.pbest = *m;
      pt.has_pbest = true;
    }
  }
  Measured gbest;
  bool has_gbest = false;
  const auto update_gbest = [&]() {
    for (const Particle& pt : swarm) {
      if (!pt.has_pbest) continue;
      if (!has_gbest || better(pt.pbest, gbest)) {
        gbest = pt.pbest;
        has_gbest = true;
      }
    }
  };
  update_gbest();

  // Iterate until the budget is spent (with an iteration cap for spaces
  // smaller than the budget). Fully serial: determinism by construction.
  const std::int64_t max_iters = 8 * budget / particles + 64;
  for (std::int64_t iter = 0;
       iter < max_iters && measured_count < budget; ++iter) {
    for (int j = 0; j < particles; ++j) {
      Particle& pt = swarm[static_cast<std::size_t>(j)];
      const Pos anchor_p = pt.has_pbest ? to_pos(pt.pbest, grid) : pt.pos;
      const Pos anchor_g = has_gbest ? to_pos(gbest, grid) : pt.pos;
      for (int a = 0; a < Grid::kAxes; ++a) {
        const auto ai = static_cast<std::size_t>(a);
        const double r1 = pt.rng.next_double();
        const double r2 = pt.rng.next_double();
        pt.vel[ai] = kInertia * pt.vel[ai] +
                     kCognitive * r1 * (anchor_p[ai] - pt.pos[ai]) +
                     kSocial * r2 * (anchor_g[ai] - pt.pos[ai]);
        // Velocity clamp: half the axis span keeps particles on the grid.
        const double vmax =
            std::max(1.0, static_cast<double>(grid.axis_size(a)) / 2.0);
        pt.vel[ai] = std::clamp(pt.vel[ai], -vmax, vmax);
        pt.pos[ai] = std::clamp(
            pt.pos[ai] + pt.vel[ai], 0.0,
            static_cast<double>(grid.axis_size(a) - 1));
      }
      if (const auto m = evaluate(pt.pos)) {
        if (!pt.has_pbest || better(*m, pt.pbest)) {
          pt.pbest = *m;
          pt.has_pbest = true;
        }
      }
    }
    update_gbest();
  }

  st.measured = measured_count;
  st.search.stage1_evaluated = measured_count;
  return select_measured(engine, opt, std::move(fresh), &st.search);
}

}  // namespace gemmtune::tuner::strategy::detail
