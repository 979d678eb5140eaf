#include "tuner/search.hpp"

#include <algorithm>
#include <optional>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/intmath.hpp"
#include "common/thread_pool.hpp"
#include "trace/trace.hpp"

namespace gemmtune::tuner {

using codegen::KernelParams;
using codegen::Precision;

SearchEngine::SearchEngine(simcl::DeviceId id) : id_(id), model_(id) {}

std::vector<std::pair<std::int64_t, double>> SearchEngine::sweep(
    const KernelParams& p, std::int64_t max_n) const {
  std::vector<std::pair<std::int64_t, double>> curve;
  const std::int64_t lcm = lcm3(p.Mwg, p.Nwg, p.Kwg);
  for (std::int64_t n = lcm; n <= max_n; n += lcm) {
    const auto e = model_.kernel_estimate(p, n, n, n);
    if (!e.ok) break;
    curve.emplace_back(n, e.gflops);
  }
  return curve;
}

std::vector<KernelParams> SearchEngine::candidate_space(
    Precision prec, const SearchOptions& opt, EnumStats* stats) const {
  // Everything that shapes the space (thread counts never do — the list
  // is bit-identical for any of them). A server tuning dozens of shape
  // classes hits the same key every time.
  const std::string key =
      std::string(to_string(prec)) + "|" +
      std::to_string(opt.enumeration.max_candidates) + "|" +
      (opt.restrict_algo ? to_string(*opt.restrict_algo) : "*") + "|" +
      (opt.restrict_local ? (*opt.restrict_local ? "L" : "l") : "*");
  {
    std::lock_guard<std::mutex> lock(space_mu_);
    const auto it = space_cache_.find(key);
    if (it != space_cache_.end()) {
      if (stats) *stats = it->second.second;
      return it->second.first;
    }
  }
  EnumStats est;
  std::vector<KernelParams> candidates;
  {
    trace::Span span("tuner.enumerate");
    candidates =
        enumerate_candidates(id_, prec, opt.enumeration, &est, opt.threads);
  }
  candidates.push_back(codegen::table2_entry(id_, prec).params);
  if (opt.restrict_algo || opt.restrict_local) {
    std::erase_if(candidates, [&](const KernelParams& p) {
      if (opt.restrict_algo && p.algo != *opt.restrict_algo) return true;
      if (opt.restrict_local &&
          (p.share_a || p.share_b) != *opt.restrict_local)
        return true;
      return false;
    });
  }
  if (stats) *stats = est;
  std::lock_guard<std::mutex> lock(space_mu_);
  space_cache_.emplace(key, std::make_pair(candidates, est));
  return candidates;
}

double SearchEngine::measure_candidate(const KernelParams& p,
                                       const SearchOptions& opt) const {
  if (opt.shape) {
    const ShapeClass& s = *opt.shape;
    const ShapeCost c = shape_cost(model_, p, s.Mc, s.Nc, s.Kc);
    return c.ok ? c.gflops : 0;
  }
  const std::int64_t n1 = model_.stage1_size(p);
  const auto e = model_.kernel_estimate(p, n1, n1, n1);
  return e.ok ? e.gflops : 0;
}

TunedKernel SearchEngine::profile_candidate(const KernelParams& p,
                                            const SearchOptions& opt) const {
  TunedKernel t;
  t.params = p;
  if (opt.shape) {
    const ShapeClass& s = *opt.shape;
    const ShapeCost c = shape_cost(model_, p, s.Mc, s.Nc, s.Kc);
    check(c.ok, "profile_candidate: kernel unusable for shape class " +
                    to_string(s));
    t.stage1_gflops = c.gflops;
    t.best_gflops = c.gflops;
    t.best_n = s.Nc;
    t.curve = {{s.Nc, c.gflops}};
    t.shape = s;
    return t;
  }
  const std::int64_t n1 = model_.stage1_size(p);
  const auto e1 = model_.kernel_estimate(p, n1, n1, n1);
  check(e1.ok, "profile_kernel: kernel rejected: " + e1.reason);
  t.stage1_gflops = e1.gflops;
  t.curve = sweep(p, opt.stage2_max_n);
  for (const auto& [n, g] : t.curve) {
    if (g > t.best_gflops) {
      t.best_gflops = g;
      t.best_n = n;
    }
  }
  return t;
}

namespace {

/// The pool one search step runs on (see pool_for): the process-wide pool
/// when `threads` is 0 or the configured count, else its own workers,
/// created on first use. tune() shares one between ranking and selection.
class SearchPool {
 public:
  explicit SearchPool(int threads) : threads_(threads) {}
  ThreadPool& get() { return pool_for(threads_, &local_); }

 private:
  int threads_;
  std::optional<ThreadPool> local_;
};

std::vector<Scored> rank_on(const SearchEngine& engine, SearchPool& search_pool,
                            const std::vector<KernelParams>& candidates,
                            const SearchOptions& opt, std::size_t keep,
                            SearchStats* stats) {
  // One measurement per candidate, fanned out over the pool. Chunks are
  // contiguous and merged in chunk order, so the scored list is in
  // candidate-index order for any thread count.
  ThreadPool& pool = search_pool.get();
  const auto workers = static_cast<std::size_t>(pool.size());
  std::vector<std::vector<Scored>> part_scored(workers);
  std::vector<std::int64_t> part_failed(workers, 0);
  pool.parallel_for(
      static_cast<std::int64_t>(candidates.size()),
      [&](std::int64_t begin, std::int64_t end, int worker) {
        const auto w = static_cast<std::size_t>(worker);
        for (std::int64_t i = begin; i < end; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          const double g = engine.measure_candidate(candidates[idx], opt);
          if (g <= 0) {
            ++part_failed[w];
            continue;
          }
          part_scored[w].push_back({g, idx});
        }
      });
  std::vector<Scored> scored;
  std::int64_t failed = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    failed += part_failed[w];
    scored.insert(scored.end(), part_scored[w].begin(), part_scored[w].end());
  }
  // Tie-break equal scores by candidate index: partial_sort is not stable,
  // and the rank order must not depend on how chunks interleaved.
  keep = std::min(keep, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<std::ptrdiff_t>(keep),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      if (a.gflops != b.gflops) return a.gflops > b.gflops;
                      return a.index < b.index;
                    });
  scored.resize(keep);
  if (stats) {
    stats->stage1_evaluated = static_cast<std::int64_t>(candidates.size());
    stats->stage1_failed = failed;
  }
  return scored;
}

TunedKernel select_on(const SearchEngine& engine, SearchPool& search_pool,
                      const std::vector<KernelParams>& candidates,
                      const std::vector<Scored>& ranked,
                      const SearchOptions& opt, SearchStats* stats) {
  check(!ranked.empty(),
        "search: no candidate produced a positive measurement");
  const Scored& top = ranked.front();
  // Input-aware search: the measurement already IS the objective (the
  // delivered cost of this shape class), so there is no stage-2 size
  // sweep — the top-ranked candidate is the winner.
  if (opt.shape) return engine.profile_candidate(candidates[top.index], opt);

  // Stage 2: sweep the finalists over sizes <= stage2_max_n in parallel,
  // then reduce in rank order; pick the kernel with the highest
  // performance at any size (ties go to the better stage-1 rank).
  const std::size_t keep =
      std::min<std::size_t>(kStage1Keep, ranked.size());
  std::vector<std::vector<std::pair<std::int64_t, double>>> curves(keep);
  search_pool.get().parallel_for(
      static_cast<std::int64_t>(keep),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i) {
          const auto idx = static_cast<std::size_t>(i);
          curves[idx] =
              engine.sweep(candidates[ranked[idx].index], opt.stage2_max_n);
        }
      });
  SearchStats st;
  TunedKernel best;
  for (std::size_t i = 0; i < keep; ++i) {
    const KernelParams& p = candidates[ranked[i].index];
    auto& curve = curves[i];
    st.stage2_points += static_cast<std::int64_t>(curve.size());
    if (curve.empty()) {
      ++st.stage2_empty;
      st.stage2_failed.push_back(p.summary());
    }
    double peak = 0;
    std::int64_t peak_n = 0;
    for (const auto& [n, g] : curve) {
      if (g > peak) {
        peak = g;
        peak_n = n;
      }
    }
    if (peak > best.best_gflops) {
      best.params = p;
      best.stage1_gflops = ranked[i].gflops;
      best.best_gflops = peak;
      best.best_n = peak_n;
      best.curve = std::move(curve);
    }
  }
  if (best.best_gflops <= 0) {
    // Every finalist's sweep came back empty (e.g. stage2_max_n below the
    // smallest blocking LCM). Fall back to the stage-1 measurement of the
    // top-ranked finalist rather than failing the whole search.
    st.used_stage1_fallback = true;
    best.params = candidates[top.index];
    best.stage1_gflops = top.gflops;
    best.best_gflops = top.gflops;
    best.best_n = engine.model().stage1_size(best.params);
    best.curve = {{best.best_n, top.gflops}};
  }
  if (stats) {
    stats->stage2_points = st.stage2_points;
    stats->stage2_empty = st.stage2_empty;
    stats->stage2_failed = std::move(st.stage2_failed);
    stats->used_stage1_fallback = st.used_stage1_fallback;
  }
  check(best.best_gflops > 0,
        "search: neither stage 2 nor the stage-1 fallback produced a "
        "positive measurement");
  return best;
}

}  // namespace

std::vector<Scored> SearchEngine::rank(
    const std::vector<KernelParams>& candidates, const SearchOptions& opt,
    std::size_t keep, SearchStats* stats) const {
  SearchPool pool(opt.threads);
  return rank_on(*this, pool, candidates, opt, keep, stats);
}

TunedKernel SearchEngine::select(const std::vector<KernelParams>& candidates,
                                 const std::vector<Scored>& ranked,
                                 const SearchOptions& opt,
                                 SearchStats* stats) const {
  SearchPool pool(opt.threads);
  return select_on(*this, pool, candidates, ranked, opt, stats);
}

TunedKernel SearchEngine::tune(Precision prec, const SearchOptions& opt,
                               SearchStats* stats) const {
  trace::Span tune_span("tuner.tune");
  SearchStats st;
  const std::vector<KernelParams> candidates =
      candidate_space(prec, opt, &st.enumeration);
  check(!candidates.empty(), "tune: no valid candidates for device");

  SearchPool pool(opt.threads);
  std::vector<Scored> finalists;
  {
    trace::Span stage1_span("tuner.stage1");
    finalists = rank_on(*this, pool, candidates, opt, kStage1Keep, &st);
  }
  TunedKernel best;
  {
    std::optional<trace::Span> stage2_span;
    if (!opt.shape) stage2_span.emplace("tuner.stage2");
    best = select_on(*this, pool, candidates, finalists, opt, &st);
  }
  if (trace::enabled()) {
    trace::counter_add("tuner.candidates", candidates.size());
    trace::counter_add("tuner.stage1_evaluated",
                       static_cast<std::uint64_t>(st.stage1_evaluated));
    trace::counter_add("tuner.stage1_failed",
                       static_cast<std::uint64_t>(st.stage1_failed));
    trace::counter_add("tuner.stage2_points",
                       static_cast<std::uint64_t>(st.stage2_points));
    trace::counter_add("tuner.stage2_empty",
                       static_cast<std::uint64_t>(st.stage2_empty));
    trace::counter_add("tuner.stage1_fallbacks",
                       st.used_stage1_fallback ? 1 : 0);
    trace::gauge_set("tuner.best_gflops", best.best_gflops);
  }
  if (stats) *stats = std::move(st);
  return best;
}

}  // namespace gemmtune::tuner
