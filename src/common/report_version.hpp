// The single home of every machine-readable report schema tag.
//
// Each JSON document the project emits carries a "schema" field naming its
// format and version; tools/compare_bench.py and the tests key on these
// strings. Bumping a version is a one-line change here, and a grep for the
// constant finds every producer and consumer.
#pragma once

namespace gemmtune {

/// Bench reproduction reports (bench/bench_util.hpp).
inline constexpr const char* kBenchReportSchema = "gemmtune-bench-v1";

/// Batched serving reports (`gemmtune serve` / `gemmtune replay`).
inline constexpr const char* kServeReportSchema = "gemmtune-serve-v1";

/// Benchmark experiment database records (src/benchdb), one per line of
/// the append-only JSONL store.
inline constexpr const char* kBenchDbSchema = "gemmtune-benchdb-v1";

/// Aggregated trace metrics (src/trace).
inline constexpr const char* kMetricsSchema = "gemmtune-metrics-v1";

/// Serialized serving workload traces (src/serve/workload.hpp).
inline constexpr const char* kWorkloadSchema = "gemmtune-workload-v1";

}  // namespace gemmtune
