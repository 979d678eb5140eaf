#include "tuner/strategy/strategy.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <string>

#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/strings.hpp"
#include "tuner/strategy/detail.hpp"

namespace gemmtune::tuner::strategy {

using codegen::KernelParams;
using codegen::Precision;

namespace {

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

std::int64_t parse_spec_int(const std::string& key,
                            const std::string& value) {
  try {
    std::size_t used = 0;
    const long long v = std::stoll(value, &used);
    check(used == value.size(),
          "--strategy: " + key + " expects an integer, got '" + value + "'");
    return v;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    fail("--strategy: " + key + " expects an integer, got '" + value + "'");
  }
}

}  // namespace

StrategySpec parse_strategy_spec(const std::string& text) {
  static const std::vector<std::string> kNames = {"exhaustive", "model_topk",
                                                  "anneal", "pso"};
  std::string name = text;
  std::string rest;
  if (const auto comma = text.find(','); comma != std::string::npos) {
    name = text.substr(0, comma);
    rest = text.substr(comma + 1);
  }
  name = trim(name);
  StrategySpec spec;
  if (name == "exhaustive") {
    spec.kind = StrategyKind::Exhaustive;
  } else if (name == "model_topk") {
    spec.kind = StrategyKind::ModelTopK;
  } else if (name == "anneal") {
    spec.kind = StrategyKind::Anneal;
  } else if (name == "pso") {
    spec.kind = StrategyKind::Pso;
  } else {
    fail_unknown_value("--strategy", name, kNames);
  }
  std::vector<std::string> allowed = {"budget", "seed"};
  if (spec.kind == StrategyKind::Anneal) allowed.push_back("restarts");
  if (spec.kind == StrategyKind::Pso) allowed.push_back("particles");
  for (const auto& [key, value] : parse_keyval_spec(rest, "--strategy")) {
    if (key == "budget") {
      spec.budget = parse_spec_int(key, value);
      check(spec.budget > 0, "--strategy: budget must be positive");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(parse_spec_int(key, value));
    } else if (key == "restarts" && spec.kind == StrategyKind::Anneal) {
      const std::int64_t v = parse_spec_int(key, value);
      check(v > 0 && v <= kIntMax,
            "--strategy: restarts must be in [1, " + std::to_string(kIntMax) +
                "], got '" + value + "'");
      spec.restarts = static_cast<int>(v);
    } else if (key == "particles" && spec.kind == StrategyKind::Pso) {
      const std::int64_t v = parse_spec_int(key, value);
      check(v > 1 && v <= kIntMax,
            "--strategy: particles must be in [2, " + std::to_string(kIntMax) +
                "], got '" + value + "'");
      spec.particles = static_cast<int>(v);
    } else {
      fail_unknown_key("--strategy", key, allowed);
    }
  }
  return spec;
}

namespace detail {

namespace {

/// The algorithm axis, in grid order.
constexpr codegen::Algorithm kAlgos[] = {
    codegen::Algorithm::BA, codegen::Algorithm::PL, codegen::Algorithm::DB};

}  // namespace

TunedKernel select_measured(const SearchEngine& engine,
                            const SearchOptions& opt,
                            std::vector<Measured> measured,
                            SearchStats* stats) {
  std::sort(measured.begin(), measured.end(), better);
  measured.erase(std::unique(measured.begin(), measured.end(),
                             [](const Measured& a, const Measured& b) {
                               return a.key == b.key;
                             }),
                 measured.end());
  std::vector<KernelParams> params;
  std::vector<Scored> ranked;
  params.reserve(measured.size());
  ranked.reserve(measured.size());
  for (const Measured& m : measured) {
    ranked.push_back({m.gflops, params.size()});
    params.push_back(m.params);
  }
  return engine.select(params, ranked, opt, stats);
}

Grid::Grid(const SearchEngine& engine, const SearchOptions& opt)
    : axes_(grid_axes()),
      dev_(engine.model().spec()),
      restrict_algo_(opt.restrict_algo),
      restrict_local_(opt.restrict_local) {
  const int nl = static_cast<int>(axes_.layouts.size());
  sizes_ = {static_cast<int>(axes_.Mwg.size()),
            static_cast<int>(axes_.Nwg.size()),
            static_cast<int>(axes_.Kwg.size()),
            static_cast<int>(axes_.dim.size()),
            static_cast<int>(axes_.dim.size()),
            static_cast<int>(axes_.Kwi.size()),
            static_cast<int>(axes_.vw.size()),
            4,   // share_a/share_b bits
            3,   // algorithm
            2,   // MdimA reshape selector
            2,   // NdimB reshape selector
            4,   // stride_m/stride_n bits
            nl,  // layout_a
            nl}; // layout_b
}

std::optional<KernelParams> Grid::decode(const Coords& c,
                                         Precision prec) const {
  KernelParams p;
  p.prec = prec;
  p.Mwg = axes_.Mwg[static_cast<std::size_t>(c[0])];
  p.Nwg = axes_.Nwg[static_cast<std::size_t>(c[1])];
  p.Kwg = axes_.Kwg[static_cast<std::size_t>(c[2])];
  p.MdimC = axes_.dim[static_cast<std::size_t>(c[3])];
  p.NdimC = axes_.dim[static_cast<std::size_t>(c[4])];
  p.Kwi = axes_.Kwi[static_cast<std::size_t>(c[5])];
  p.vw = axes_.vw[static_cast<std::size_t>(c[6])];
  // The enumerator's structural rules (its loop-level `continue`s), which
  // validate() does not re-check: every decodable point must be one the
  // exhaustive walk could visit.
  if (p.Mwg % p.MdimC != 0 || p.Nwg % p.NdimC != 0) return std::nullopt;
  const int wg = p.MdimC * p.NdimC;
  if (wg > dev_.max_workgroup_size || wg < 16) return std::nullopt;
  const int Mwi = p.Mwg / p.MdimC;
  const int Nwi = p.Nwg / p.NdimC;
  if (Mwi > 8 || Nwi > 12) return std::nullopt;
  if (p.Kwg % p.Kwi != 0) return std::nullopt;
  if (Mwi % p.vw != 0 || Nwi % p.vw != 0) return std::nullopt;
  const int share = c[7];
  p.share_a = (share & 1) != 0;
  p.share_b = (share & 2) != 0;
  p.algo = kAlgos[static_cast<std::size_t>(c[8])];
  if (p.algo != codegen::Algorithm::BA && share == 0) return std::nullopt;
  p.MdimA = c[9] != 0 && wg >= 2 * p.MdimC ? 2 * p.MdimC : p.MdimC;
  p.NdimB = c[10] != 0 && wg >= 2 * p.NdimC ? 2 * p.NdimC : p.NdimC;
  p.stride_m = (c[11] & 1) != 0;
  p.stride_n = (c[11] & 2) != 0;
  p.layout_a = axes_.layouts[static_cast<std::size_t>(c[12])];
  p.layout_b = axes_.layouts[static_cast<std::size_t>(c[13])];
  if (restrict_algo_ && p.algo != *restrict_algo_) return std::nullopt;
  if (restrict_local_ && (p.share_a || p.share_b) != *restrict_local_)
    return std::nullopt;
  if (validate(p, dev_)) return std::nullopt;
  return p;
}

std::optional<Grid::Coords> Grid::encode(const KernelParams& p) const {
  // Position of v on an axis; -1 when v is off the axis.
  const auto find_in = [](const auto& values, auto v) {
    const auto it = std::find(std::begin(values), std::end(values), v);
    return it == std::end(values) ? -1
                                  : static_cast<int>(it - std::begin(values));
  };
  const auto reshape = [](int dim, int base) {
    return dim == base ? 0 : dim == 2 * base ? 1 : -1;
  };
  const Coords c = {find_in(axes_.Mwg, p.Mwg),
                    find_in(axes_.Nwg, p.Nwg),
                    find_in(axes_.Kwg, p.Kwg),
                    find_in(axes_.dim, p.MdimC),
                    find_in(axes_.dim, p.NdimC),
                    find_in(axes_.Kwi, p.Kwi),
                    find_in(axes_.vw, p.vw),
                    (p.share_a ? 1 : 0) | (p.share_b ? 2 : 0),
                    find_in(kAlgos, p.algo),
                    reshape(p.MdimA, p.MdimC),
                    reshape(p.NdimB, p.NdimC),
                    (p.stride_m ? 1 : 0) | (p.stride_n ? 2 : 0),
                    find_in(axes_.layouts, p.layout_a),
                    find_in(axes_.layouts, p.layout_b)};
  if (std::find(c.begin(), c.end(), -1) != c.end()) return std::nullopt;
  return c;
}

}  // namespace detail

TunedKernel run_strategy(const SearchEngine& engine, Precision prec,
                         const SearchOptions& opt, const StrategySpec& spec,
                         StrategyStats* stats) {
  StrategyStats st;
  st.kind = spec.kind;
  TunedKernel t;
  switch (spec.kind) {
    case StrategyKind::Exhaustive:
      // The reference: the paper's two-stage search measures every
      // candidate in the space.
      t = engine.tune(prec, opt, &st.search);
      st.space = st.search.stage1_evaluated;
      st.measured = st.search.stage1_evaluated;
      break;
    case StrategyKind::ModelTopK:
      t = detail::model_topk(engine, prec, opt, spec, st);
      break;
    case StrategyKind::Anneal:
      t = detail::anneal(engine, prec, opt, spec, st);
      break;
    case StrategyKind::Pso:
      t = detail::pso(engine, prec, opt, spec, st);
      break;
  }
  st.fraction_measured =
      st.space > 0
          ? static_cast<double>(st.measured) / static_cast<double>(st.space)
          : 0;
  if (stats) *stats = std::move(st);
  return t;
}

}  // namespace gemmtune::tuner::strategy
