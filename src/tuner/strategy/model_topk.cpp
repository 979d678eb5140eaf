// Model-ranked top-K (tritonBLAS-style analytical pre-selection): rank the
// FULL candidate space with the analytic performance model — a pure
// arithmetic pass, free relative to a real-hardware measurement — then
// measure only the top-K sliver and run the standard finalist sweep over
// it. On real hardware the ranking pass costs microseconds per candidate
// while each measurement costs a kernel launch; here the budget accounting
// is what the quality gate audits.
#include "common/error.hpp"
#include "tuner/strategy/detail.hpp"

namespace gemmtune::tuner::strategy::detail {

TunedKernel model_topk(const SearchEngine& engine, codegen::Precision prec,
                       const SearchOptions& opt, const StrategySpec& spec,
                       StrategyStats& st) {
  const std::int64_t budget = spec.budget > 0 ? spec.budget : 64;
  const std::vector<codegen::KernelParams> candidates =
      engine.candidate_space(prec, opt, &st.search.enumeration);
  check(!candidates.empty(), "model_topk: no valid candidates for device");
  st.space = static_cast<std::int64_t>(candidates.size());
  st.model_ranked = st.space;

  // Rank every candidate analytically; only the top-K sliver is
  // "measured" (counts toward the budget).
  const std::vector<Scored> top =
      engine.rank(candidates, opt, static_cast<std::size_t>(budget));
  std::vector<Measured> measured;
  measured.reserve(top.size());
  for (const Scored& s : top) {
    const codegen::KernelParams& p = candidates[s.index];
    measured.push_back({p, s.gflops, s.index, p.key()});
  }
  st.measured = static_cast<std::int64_t>(measured.size());
  st.search.stage1_evaluated = st.measured;
  return select_measured(engine, opt, std::move(measured), &st.search);
}

}  // namespace gemmtune::tuner::strategy::detail
