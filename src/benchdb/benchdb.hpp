// Benchmark experiment database: an append-only store of every benchmark
// result the project ever measured, keyed well enough to query and to
// gate CI on the performance *trajectory* instead of one pinned baseline.
//
// One Record holds the full scalar set of one report (a bench_util
// "gemmtune-bench-v1" file or a `serve` report), flattened
// to a metric-name -> value map, plus the key fields that identify the
// experiment: commit, commit time, host, device, precision, interpreter
// backend, bench, scenario and thread count. Records serialize one per
// line ("gemmtune-benchdb-v1") into a JSONL file via common/jsonl, so the
// database is grown by appending and merged with `cat`.
//
// The regression policy layer (gate) compares each metric's current value
// against the *median of its last K recorded values* with a per-metric
// tolerance and a worse-direction inferred from the metric name — the
// trajectory version of tools/compare_bench.py's single-baseline rtol,
// able to catch slow multi-commit drift that any one baseline misses.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/jsonl.hpp"

namespace gemmtune::benchdb {

/// One experiment record: the scalar set of one report plus its key.
struct Record {
  std::string commit;            // 40-hex id or "unknown"
  std::int64_t commit_time = 0;  // committer unix seconds (0 = unknown)
  std::string host;
  std::string device;   // "Tahiti", "Cypress+Cayman+...", or "mixed"
  std::string prec;     // "DGEMM", "SGEMM" or "mixed"
  std::string backend;  // tree | bytecode | native
  std::string bench;    // producing harness: bench name or "serve"
  std::string scenario;  // deterministic scenario id within the bench
  int threads = 0;
  std::string source_schema;  // schema of the ingested report
  std::map<std::string, double> metrics;

  /// Compact single-line JSON (stable key order; metrics sorted by name).
  Json to_json() const;
  /// Parses a record; throws gemmtune::Error naming the first missing or
  /// mistyped field.
  static Record from_json(const Json& doc);
};

struct LoadResult {
  std::vector<Record> records;      // file order == ingest order
  std::vector<JsonlBadLine> skipped;  // corrupt lines, with offsets
};

/// Loads a database file. Missing file -> empty database. Lines that are
/// not valid records are reported in `skipped`, never fatal.
LoadResult load_db(const std::string& path);

/// Appends records to a database file (crash-safe, see common/jsonl).
void append_db(const std::string& path, const std::vector<Record>& recs);

// ---------------------------------------------------------------------
// Ingest

/// Optional key overrides applied after extraction (CI seeding, tests).
struct IngestOverrides {
  std::string commit;
  std::optional<std::int64_t> commit_time;
};

/// Converts one report document into a record. Accepts the two known
/// schemas (gemmtune-bench-v1 / serve-v1); anything else — or a
/// report whose "meta" block is absent or missing a key field — throws
/// gemmtune::Error naming `origin` and the offending field. Flattening:
///   scalars                 kept under their own names
///   comparisons             "comparison.<section>/<label>" = measured
///   series                  "series.<section>/<name>@<N>"  = value
Record ingest_report(const Json& doc, const std::string& origin,
                     const IngestOverrides& ov = {});

// ---------------------------------------------------------------------
// Query

/// Conjunctive record filter; empty fields match everything.
struct Filter {
  std::string commit;  // prefix match (so short ids work)
  std::string device, prec, backend, bench, scenario;
  std::optional<int> threads;
  std::string metric;  // keeps only matching metrics ('*' suffix = prefix)

  bool matches(const Record& r) const;
};

/// True when `name` matches `pattern` (exact, or prefix when the pattern
/// ends in '*'; empty pattern matches all).
bool metric_matches(const std::string& pattern, const std::string& name);

/// Filters and deterministically orders records: (commit_time, commit,
/// bench, scenario, device, prec, backend, threads), ties kept in file
/// order. When `f.metric` is set, records keep only matching metrics and
/// records left with none are dropped.
std::vector<Record> query(const std::vector<Record>& records,
                          const Filter& f);

/// Distinct commits of `records` in order of first appearance (the ingest
/// trajectory; append-only files make this the commit timeline).
std::vector<std::string> commit_sequence(
    const std::vector<Record>& records);

// ---------------------------------------------------------------------
// Compare / gate / trend

/// Per-metric tolerance table: exact name or '*'-suffix prefix patterns,
/// first match wins, falling back to `default_rtol`.
struct Tolerances {
  double default_rtol = 1e-4;
  std::vector<std::pair<std::string, double>> per_metric;

  double for_metric(const std::string& name) const;
};

/// Compares the deterministic sections of two report documents (the
/// compare_bench.py contract: comparisons, series and scalars must match
/// within rtol; missing or extra entries fail; the wall-clock "metrics"
/// and host "meta" sections are ignored). Returns the number of
/// mismatches after printing one line per mismatch to `out`.
int compare_reports(const Json& baseline, const Json& current, double rtol,
                    std::ostream& out);

/// Compares the records of two commits (prefix-resolved) metric by
/// metric with symmetric rtol. Returns the mismatch count.
int compare_commits(const std::vector<Record>& records,
                    const std::string& ref_a, const std::string& ref_b,
                    const Tolerances& tol, std::ostream& out);

/// True when a larger value of this metric is worse (durations,
/// latencies, rejections, misses); everything else is higher-is-better.
bool lower_is_better(const std::string& metric);

struct GateOptions {
  int last_k = 5;        // trailing window size (median of up to K values)
  Tolerances tol;        // gate tolerances (default_rtol applies per metric)
  std::string commit;    // commit under test; empty = last in trajectory
  bool group_threads = false;  // include thread count in the series key
  // Symmetric mode flags any |relative change| beyond tolerance instead
  // of only worse-direction moves (the `compare --last K` contract).
  bool symmetric = false;
};

struct GateFailure {
  std::string key;     // "<bench> <scenario> [dev prec backend]"
  std::string metric;
  double median = 0, current = 0, rel_change = 0, tolerance = 0;
  int window = 0;  // records behind the median
};

struct GateResult {
  int checked = 0;     // metrics with at least one historical value
  int no_history = 0;  // metrics seen only at the current commit
  std::vector<GateFailure> failures;
  bool ok() const { return failures.empty(); }
};

/// Trajectory gate: for every metric series, the current commit's value
/// must not be worse than the median of the up-to-K preceding records by
/// more than the metric's tolerance (exactly at tolerance passes). Fewer
/// than K prior records gate against what exists; none at all is counted
/// in `no_history` and passes.
GateResult gate(const std::vector<Record>& records, const GateOptions& opt);

/// One metric's trajectory over the commit sequence, for trend rendering.
struct TrendSeries {
  std::string key;     // series identity (bench/scenario/device/...)
  std::string metric;
  std::vector<std::string> commits;  // ordered, parallel to values
  std::vector<double> values;
};

/// Builds per-metric trajectories over the last `last_k` commits of the
/// filtered records (0 = all commits), deterministically ordered by key
/// then metric name.
std::vector<TrendSeries> trend(const std::vector<Record>& records,
                               const Filter& f, int last_k);

/// Unicode block sparkline (▁▂▃▄▅▆▇█), scaled to the series' own
/// min..max; constant series render as all-▁. Requires a non-empty input.
std::string sparkline(const std::vector<double>& values);

/// Renders trajectories as an aligned table with unicode sparklines.
void print_trend(const std::vector<TrendSeries>& series, std::ostream& out);

/// Writes a self-contained HTML trend report (inline SVG sparklines, no
/// external resources; byte-deterministic for a given input).
void write_trend_html(const std::vector<TrendSeries>& series,
                      const std::string& path);

// ---------------------------------------------------------------------
// CLI

/// The `gemmtune bench-db` verb: ingest | query | compare | trend | gate.
/// Returns a process exit code (0 ok, 1 gate/compare failure or error).
int run_cli(const std::vector<std::string>& args, std::ostream& out);

}  // namespace gemmtune::benchdb
