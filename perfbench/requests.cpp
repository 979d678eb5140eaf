// Seeded request streams, operand generation and the benchmark's own
// result checks (no library arithmetic is trusted here).
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"

namespace perfbench {

using gemmtune::Rng;
using gemmtune::trans_a;
using gemmtune::trans_b;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

Rng round_rng(std::uint64_t seed, std::int64_t round, std::uint64_t salt) {
  return Rng(splitmix(seed ^ splitmix(static_cast<std::uint64_t>(round) *
                                          0x100000001b3ull +
                                      salt)));
}

std::vector<int> permutation(Rng& rng, int n) {
  std::vector<int> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (int i = n - 1; i > 0; --i)
    std::swap(p[static_cast<std::size_t>(i)],
              p[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
  return p;
}

/// Device x precision x type of combo c in [0, 16).
void set_combo(Request& r, int c) {
  r.device = bench_devices()[static_cast<std::size_t>(c / 8)];
  r.prec = (c / 4) % 2 == 0 ? Precision::SP : Precision::DP;
  r.type = gemmtune::all_gemm_types()[static_cast<std::size_t>(c % 4)];
}

void set_scalars(Request& r, Rng& rng) {
  r.alpha = rng.next_double(0.5, 1.0);
  r.beta = rng.next_double() < 0.5 ? 0.0 : rng.next_double(-0.5, 0.5);
  r.data_seed = rng.next_u64();
}

/// Large near-cubic problems, `per_combo` per combo. The k-th problem of
/// combo c always draws from stratum (5c + 8k) mod 16 (width 16) of
/// [256, 512), each extent jittered within it: every round then holds the
/// same size mix per device, precision and type, so a run's percentiles do
/// not depend on how many rounds fit in it or on which combo a seed
/// happened to give the largest problem.
void add_large(std::vector<Request>& out, Rng& rng, int per_combo) {
  for (int c = 0; c < 16; ++c)
    for (int k = 0; k < per_combo; ++k) {
      Request r;
      set_combo(r, c);
      const index_t b = 256 + 16 * ((5 * c + 8 * k) % 16);
      r.M = b + static_cast<index_t>(rng.next_below(16));
      r.N = b + static_cast<index_t>(rng.next_below(16));
      r.K = b + static_cast<index_t>(rng.next_below(16));
      set_scalars(r, rng);
      out.push_back(r);
    }
}

void finish_round(std::vector<Request>& out, Rng& rng, std::int64_t round) {
  const std::vector<int> order = permutation(rng, static_cast<int>(out.size()));
  std::vector<Request> shuffled;
  shuffled.reserve(out.size());
  for (int i : order) shuffled.push_back(out[static_cast<std::size_t>(i)]);
  for (std::size_t i = 0; i < shuffled.size(); ++i)
    shuffled[i].id = round * static_cast<std::int64_t>(shuffled.size()) +
                     static_cast<std::int64_t>(i);
  out = std::move(shuffled);
}

}  // namespace

std::vector<Request> mixed_round(std::uint64_t seed, std::int64_t round) {
  Rng rng = round_rng(seed, round, 1);
  std::vector<Request> out;
  out.reserve(kMixedRound);
  // 5 small problems per combo: extents from the 7 strata of width 16
  // over [16, 128), M, N and K following each other at combo-dependent
  // offsets (square, flat and skinny shapes alike), each extent jittered
  // within its stratum. With 2 large problems per combo, the median call
  // sits inside the slower device's small-call cluster, not in the gap
  // between the devices' clusters.
  const auto extent = [&rng](int stratum) {
    return static_cast<index_t>(16 + 16 * (stratum % 7) +
                                static_cast<int>(rng.next_below(16)));
  };
  for (int c = 0; c < 16; ++c)
    for (int j = 0; j < kMixedSmallPerCombo; ++j) {
      Request r;
      set_combo(r, c);
      r.M = extent(j + c);
      r.N = extent(j + 2 * c + 1);
      r.K = extent(j + 3 * c + 2);
      set_scalars(r, rng);
      out.push_back(r);
    }
  add_large(out, rng, kMixedLargePerCombo);
  finish_round(out, rng, round);
  return out;
}

std::vector<Request> verify_round(std::uint64_t seed, std::int64_t round) {
  Rng rng = round_rng(seed, round, 2);
  std::vector<Request> out;
  out.reserve(kVerifyRound);
  add_large(out, rng, 1);
  finish_round(out, rng, round);
  return out;
}

template <typename T>
Operands<T> make_operands(const Request& r) {
  Rng rng(splitmix(r.data_seed));
  const bool ta = trans_a(r.type) == Transpose::Yes;
  const bool tb = trans_b(r.type) == Transpose::Yes;
  Operands<T> op;
  op.A = Matrix<T>(ta ? r.K : r.M, ta ? r.M : r.K);
  op.B = Matrix<T>(tb ? r.N : r.K, tb ? r.K : r.N);
  op.Cin = Matrix<T>(r.M, r.N);
  op.A.fill_random(rng);
  op.B.fill_random(rng);
  op.Cin.fill_random(rng);
  op.C = op.Cin;
  return op;
}

template <typename T>
std::string check_result(const Request& r, const Operands<T>& op,
                         std::uint64_t check_seed, int samples) {
  // Worst-case rounding bound of alpha * (K-term dot product) + beta * c
  // in precision T, plus the check's own double accumulation over K + N
  // terms, each with a factor 2 margin; scaled by the magnitudes involved.
  const double u = std::numeric_limits<T>::epsilon() / 2;
  const double ud = std::numeric_limits<double>::epsilon() / 2;
  const double gamma = 2.0 * static_cast<double>(r.K + 2) * u +
                       2.0 * static_cast<double>(r.K + r.N + 4) * ud;
  const bool ta = trans_a(r.type) == Transpose::Yes;
  const bool tb = trans_b(r.type) == Transpose::Yes;
  const auto a = [&](index_t i, index_t k) {
    return static_cast<double>(ta ? op.A.at(k, i) : op.A.at(i, k));
  };
  const auto b = [&](index_t k, index_t j) {
    return static_cast<double>(tb ? op.B.at(j, k) : op.B.at(k, j));
  };
  if (op.C.rows() != r.M || op.C.cols() != r.N) return "C has wrong shape";

  // Row check: C*x == alpha*op(A)*(op(B)*x) + beta*Cin*x for random x > 0.
  gemmtune::Rng rng(splitmix(check_seed ^ r.data_seed));
  std::vector<double> x(static_cast<std::size_t>(r.N));
  for (double& v : x) v = rng.next_double(0.5, 1.5);
  std::vector<double> bx(static_cast<std::size_t>(r.K), 0.0),
      bxa(static_cast<std::size_t>(r.K), 0.0);
  for (index_t k = 0; k < r.K; ++k)
    for (index_t j = 0; j < r.N; ++j) {
      bx[static_cast<std::size_t>(k)] += b(k, j) * x[static_cast<std::size_t>(j)];
      bxa[static_cast<std::size_t>(k)] +=
          std::abs(b(k, j)) * x[static_cast<std::size_t>(j)];
    }
  for (index_t i = 0; i < r.M; ++i) {
    double got = 0, want = 0, mag = 0;
    for (index_t j = 0; j < r.N; ++j) {
      const double xj = x[static_cast<std::size_t>(j)];
      const double c = static_cast<double>(op.C.at(i, j));
      if (!std::isfinite(c)) return "non-finite C entry";
      got += c * xj;
      want += r.beta * static_cast<double>(op.Cin.at(i, j)) * xj;
      mag += std::abs(r.beta * static_cast<double>(op.Cin.at(i, j))) * xj;
    }
    double ab = 0, aba = 0;
    for (index_t k = 0; k < r.K; ++k) {
      ab += a(i, k) * bx[static_cast<std::size_t>(k)];
      aba += std::abs(a(i, k)) * bxa[static_cast<std::size_t>(k)];
    }
    want += r.alpha * ab;
    mag += std::abs(r.alpha) * aba;
    if (std::abs(got - want) > gamma * mag + 1e-300)
      return "row check failed at row " + std::to_string(i);
  }

  // Sampled entries, each recomputed as a dot product.
  for (int s = 0; s < samples; ++s) {
    const auto i = static_cast<index_t>(rng.next_below(
        static_cast<std::uint64_t>(r.M)));
    const auto j = static_cast<index_t>(rng.next_below(
        static_cast<std::uint64_t>(r.N)));
    double dot = 0, mag = 0;
    for (index_t k = 0; k < r.K; ++k) {
      dot += a(i, k) * b(k, j);
      mag += std::abs(a(i, k) * b(k, j));
    }
    const double cin = static_cast<double>(op.Cin.at(i, j));
    const double want = r.alpha * dot + r.beta * cin;
    const double bound =
        gamma * (std::abs(r.alpha) * mag + std::abs(r.beta * cin)) + 1e-300;
    if (!(std::abs(static_cast<double>(op.C.at(i, j)) - want) <= bound))
      return "entry (" + std::to_string(i) + "," + std::to_string(j) +
             ") is wrong";
  }
  return "";
}

template Operands<float> make_operands<float>(const Request&);
template Operands<double> make_operands<double>(const Request&);
template std::string check_result<float>(const Request&,
                                         const Operands<float>&,
                                         std::uint64_t, int);
template std::string check_result<double>(const Request&,
                                          const Operands<double>&,
                                          std::uint64_t, int);

}  // namespace perfbench
