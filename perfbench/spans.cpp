// Span bookkeeping and order statistics of the benchmark.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::map<std::int64_t, double> Tracer::per_request_ms(
    const std::string& name) const {
  std::map<std::int64_t, double> out;
  for (const SpanRec& s : spans_)
    if (name == s.name) out[s.request] += 1e-6 * double(s.end_ns - s.start_ns);
  return out;
}

void Tracer::write_json(const std::string& path,
                        const std::string& identity) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  f << "{\"identity\": " << identity << ",\n \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    f << "  {\"id\": " << i << ", \"name\": \"" << s.name
      << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
      << ", \"parent\": " << s.parent << ", \"request\": " << s.request
      << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  f << " ]}\n";
  if (!f) throw std::runtime_error("write failed for " + path);
}

}  // namespace perfbench
