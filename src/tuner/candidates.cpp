#include "tuner/candidates.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"

namespace gemmtune::tuner {

using codegen::Algorithm;
using codegen::KernelParams;
using codegen::Precision;

GridAxes grid_axes() {
  // Discretized parameter values. Since the improved generator the paper
  // describes, blocking factors are no longer restricted to powers of two
  // (Section III-F), so multiples of 8/16/24 appear throughout.
  GridAxes g;
  g.Mwg = {16, 32, 48, 64, 96, 128};
  g.Nwg = {16, 32, 48, 64, 96, 128};
  g.Kwg = {8, 16, 32, 48, 64, 96, 192};
  g.dim = {4, 8, 16, 24, 32};
  g.Kwi = {1, 2, 4, 8, 16, 24};
  g.vw = {1, 2, 4, 8};
  g.layouts = {BlockLayout::CBL, BlockLayout::RBL};
  return g;
}

std::vector<KernelParams> enumerate_candidates(simcl::DeviceId id,
                                               Precision prec,
                                               const EnumOptions& opt,
                                               EnumStats* stats, int threads) {
  check(opt.max_candidates >= 1,
        "enumerate_candidates: max_candidates must be >= 1, got " +
            std::to_string(opt.max_candidates));
  const simcl::DeviceSpec& dev = simcl::device_spec(id);
  EnumStats st;
  const GridAxes axes = grid_axes();

  // The expensive part — walking the cross product and validating every
  // combination — fans out over (Mwg, Nwg) chunks. Chunk index order
  // equals the serial nested-loop walk order, so concatenating the chunk
  // outputs reproduces the serial visit sequence exactly.
  const auto nM = static_cast<std::int64_t>(axes.Mwg.size());
  const auto nN = static_cast<std::int64_t>(axes.Nwg.size());
  struct ChunkOut {
    std::vector<KernelParams> valid;
    std::int64_t raw = 0, invalid = 0;
  };
  std::vector<ChunkOut> chunks(static_cast<std::size_t>(nM * nN));
  auto enumerate_chunk = [&](std::int64_t ci) {
    ChunkOut& co = chunks[static_cast<std::size_t>(ci)];
    const int Mwg = axes.Mwg[static_cast<std::size_t>(ci / nN)];
    const int Nwg = axes.Nwg[static_cast<std::size_t>(ci % nN)];
      for (int Kwg : axes.Kwg) {
        for (int MdimC : axes.dim) {
          if (Mwg % MdimC != 0) continue;
          for (int NdimC : axes.dim) {
            if (Nwg % NdimC != 0) continue;
            const int wg = MdimC * NdimC;
            if (wg > dev.max_workgroup_size || wg < 16) continue;
            // Heuristic: keep work-item tiles in the region the paper's
            // generator explored (Table II never exceeds Mwi=8, Nwi=12);
            // 2012-era OpenCL compilers could not keep larger register
            // tiles resident without catastrophic spilling.
            const int Mwi = Mwg / MdimC;
            const int Nwi = Nwg / NdimC;
            if (Mwi > 8 || Nwi > 12) continue;
            for (int Kwi : axes.Kwi) {
              if (Kwg % Kwi != 0) continue;
              for (int vw : axes.vw) {
                if (Mwi % vw != 0 || Nwi % vw != 0) continue;
                for (int share = 0; share < 4; ++share) {
                  for (Algorithm algo :
                       {Algorithm::BA, Algorithm::PL, Algorithm::DB}) {
                    if (algo != Algorithm::BA && share == 0) continue;
                    // Heuristic reshapes: natural (MdimC) and a flat one.
                    for (int MdimA :
                         {MdimC, wg >= 2 * MdimC ? 2 * MdimC : MdimC}) {
                      for (int NdimB :
                           {NdimC, wg >= 2 * NdimC ? 2 * NdimC : NdimC}) {
                        for (int stride = 0; stride < 4; ++stride) {
                          for (BlockLayout la : axes.layouts) {
                            for (BlockLayout lb : axes.layouts) {
                              ++co.raw;
                              KernelParams p;
                              p.prec = prec;
                              p.Mwg = Mwg;
                              p.Nwg = Nwg;
                              p.Kwg = Kwg;
                              p.MdimC = MdimC;
                              p.NdimC = NdimC;
                              p.MdimA = MdimA;
                              p.NdimB = NdimB;
                              p.Kwi = Kwi;
                              p.vw = vw;
                              p.share_a = (share & 1) != 0;
                              p.share_b = (share & 2) != 0;
                              p.stride_m = (stride & 1) != 0;
                              p.stride_n = (stride & 2) != 0;
                              p.layout_a = la;
                              p.layout_b = lb;
                              p.algo = algo;
                              if (validate(p, dev)) {
                                ++co.invalid;
                                continue;
                              }
                              co.valid.push_back(p);
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
  };

  {
    std::optional<ThreadPool> local_pool;
    ThreadPool& pool = pool_for(threads, &local_pool);
    pool.parallel_for(nM * nN,
                      [&](std::int64_t begin, std::int64_t end, int) {
                        for (std::int64_t ci = begin; ci < end; ++ci)
                          enumerate_chunk(ci);
                      });
  }

  // Reservoir-sample into the budget so a huge space degrades gracefully
  // into a uniform subsample rather than a prefix-biased one. This pass is
  // cheap and runs serially in walk order, so the kept set (and the RNG
  // sequence behind it) is bit-identical to the single-threaded walk.
  constexpr std::uint64_t kSeed = 1;
  std::vector<KernelParams> out;
  Rng rng(kSeed ^ 0xC0FFEEu);
  auto keep = [&](const KernelParams& p) {
    ++st.kept;
    if (static_cast<int>(out.size()) < opt.max_candidates) {
      out.push_back(p);
    } else {
      const std::uint64_t j =
          rng.next_below(static_cast<std::uint64_t>(st.kept));
      if (j < static_cast<std::uint64_t>(opt.max_candidates))
        out[static_cast<std::size_t>(j)] = p;
    }
  };
  for (const ChunkOut& co : chunks) {
    st.raw_combinations += co.raw;
    st.invalid += co.invalid;
    for (const KernelParams& p : co.valid) keep(p);
  }

  if (stats) *stats = st;
  std::sort(out.begin(), out.end(),
            [](const KernelParams& a, const KernelParams& b) {
              return a.key() < b.key();
            });
  return out;
}

}  // namespace gemmtune::tuner
