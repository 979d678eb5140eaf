// Tests for the benchmark experiment database: JSONL append/load round
// trips, corruption tolerance with offsets, concurrent appends under the
// shared thread pool, ingest of all three report schemas, deterministic
// query ordering, and the trajectory gate's tolerance boundaries and
// last-K windowing.
#include "benchdb/benchdb.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/report_version.hpp"
#include "common/thread_pool.hpp"

namespace gemmtune::benchdb {
namespace {

/// Fresh per-test database path under the gtest temp dir.
class BenchDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "benchdb_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

Record make_record(const std::string& commit, std::int64_t time,
                   const std::string& bench, double value) {
  Record r;
  r.commit = commit;
  r.commit_time = time;
  r.host = "testhost";
  r.device = "Tahiti";
  r.prec = "SGEMM";
  r.backend = "bytecode";
  r.bench = bench;
  r.scenario = bench;
  r.threads = 1;
  r.source_schema = kBenchReportSchema;
  r.metrics["best_gflops"] = value;
  r.metrics["best_seconds"] = 1.0 / value;
  return r;
}

TEST_F(BenchDbTest, AppendLoadRoundTrip) {
  std::vector<Record> recs = {make_record("aaa", 1, "fig9", 100.0),
                              make_record("bbb", 2, "fig10", 200.0)};
  recs[1].metrics["series.gflops/NN@1024"] = 123.456789012345;
  append_db(path_, recs);

  const LoadResult got = load_db(path_);
  ASSERT_TRUE(got.skipped.empty());
  ASSERT_EQ(got.records.size(), 2u);
  const Record& r = got.records[1];
  EXPECT_EQ(r.commit, "bbb");
  EXPECT_EQ(r.commit_time, 2);
  EXPECT_EQ(r.host, "testhost");
  EXPECT_EQ(r.device, "Tahiti");
  EXPECT_EQ(r.prec, "SGEMM");
  EXPECT_EQ(r.backend, "bytecode");
  EXPECT_EQ(r.bench, "fig10");
  EXPECT_EQ(r.threads, 1);
  EXPECT_EQ(r.source_schema, kBenchReportSchema);
  ASSERT_EQ(r.metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(r.metrics.at("best_gflops"), 200.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("series.gflops/NN@1024"),
                   123.456789012345);
}

TEST_F(BenchDbTest, AppendIsByteDeterministic) {
  append_db(path_, {make_record("aaa", 1, "fig9", 100.0)});
  std::ifstream in(path_);
  std::string line1, rest;
  std::getline(in, line1);
  EXPECT_FALSE(std::getline(in, rest));  // exactly one line
  // Round-tripping the line through parse + to_json reproduces it byte
  // for byte (sorted keys, stable number formatting).
  EXPECT_EQ(Record::from_json(Json::parse(line1)).to_json().dump(), line1);
  // Schema marker is on every line.
  EXPECT_NE(line1.find(kBenchDbSchema), std::string::npos);
}

TEST_F(BenchDbTest, LoadSkipsCorruptLinesWithOffsets) {
  append_db(path_, {make_record("aaa", 1, "fig9", 100.0)});
  std::int64_t good_len = 0;
  {
    std::ifstream in(path_, std::ios::binary | std::ios::ate);
    good_len = static_cast<std::int64_t>(in.tellg());
  }
  {
    std::ofstream out(path_, std::ios::app);
    out << "{not json at all\n";             // line 2: parse error
    out << "{\"schema\": \"bogus-v9\"}\n";   // line 3: not a record
  }
  append_db(path_, {make_record("bbb", 2, "fig9", 101.0)});

  const LoadResult got = load_db(path_);
  ASSERT_EQ(got.records.size(), 2u);  // good lines survive around the bad
  EXPECT_EQ(got.records[0].commit, "aaa");
  EXPECT_EQ(got.records[1].commit, "bbb");
  ASSERT_EQ(got.skipped.size(), 2u);
  EXPECT_EQ(got.skipped[0].line_no, 2);
  EXPECT_EQ(got.skipped[0].byte_offset, good_len);
  EXPECT_EQ(got.skipped[1].line_no, 3);
  EXPECT_EQ(got.skipped[1].byte_offset,
            good_len + static_cast<std::int64_t>(
                           std::string("{not json at all\n").size()));
  EXPECT_FALSE(got.skipped[0].error.empty());
}

TEST_F(BenchDbTest, MissingFileLoadsEmpty) {
  const LoadResult got = load_db(path_);
  EXPECT_TRUE(got.records.empty());
  EXPECT_TRUE(got.skipped.empty());
}

TEST_F(BenchDbTest, ConcurrentAppendLosesNothing) {
  constexpr int kAppends = 32;
  ThreadPool pool(4);
  pool.parallel_for(kAppends, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i)
      append_db(path_, {make_record("c" + std::to_string(i), i, "fig9",
                                    100.0 + static_cast<double>(i))});
  });

  const LoadResult got = load_db(path_);
  EXPECT_TRUE(got.skipped.empty());  // no torn or interleaved lines
  ASSERT_EQ(got.records.size(), static_cast<std::size_t>(kAppends));
  std::vector<bool> seen(kAppends, false);
  for (const Record& r : got.records)
    seen[static_cast<std::size_t>(r.commit_time)] = true;
  for (int i = 0; i < kAppends; ++i) EXPECT_TRUE(seen[i]) << "lost " << i;
}

TEST_F(BenchDbTest, RecordFromJsonNamesMissingField) {
  Json doc = make_record("aaa", 1, "fig9", 100.0).to_json();
  doc.erase("backend");
  try {
    Record::from_json(doc);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'backend'"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------------
// Ingest

Json bench_report() {
  return Json::parse(R"({
    "schema": ")" + std::string(kBenchReportSchema) + R"(",
    "bench": "fig9_tahiti",
    "meta": {"backend": "bytecode", "commit": "abc123", "commit_time": 7,
             "host": "ci", "threads": 2},
    "scalars": {"best_gflops": 2048.5},
    "comparisons": [{"section": "Fig9", "label": "NN 4096",
                     "paper": 2000.0, "measured": 2100.0}],
    "series": [{"section": "Fig9", "name": "NN",
                "points": [[1024, 1500.0], [2048, 1800.0]]}]
  })");
}

TEST_F(BenchDbTest, IngestBenchReportFlattensSections) {
  const Record r = ingest_report(bench_report(), "fig9.json");
  EXPECT_EQ(r.source_schema, kBenchReportSchema);
  EXPECT_EQ(r.bench, "fig9_tahiti");
  EXPECT_EQ(r.scenario, "fig9_tahiti");
  EXPECT_EQ(r.commit, "abc123");
  EXPECT_EQ(r.commit_time, 7);
  EXPECT_EQ(r.host, "ci");
  EXPECT_EQ(r.backend, "bytecode");
  EXPECT_EQ(r.threads, 2);
  EXPECT_EQ(r.device, "mixed");
  ASSERT_EQ(r.metrics.size(), 4u);
  EXPECT_DOUBLE_EQ(r.metrics.at("best_gflops"), 2048.5);
  EXPECT_DOUBLE_EQ(r.metrics.at("comparison.Fig9/NN 4096"), 2100.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("series.Fig9/NN@1024"), 1500.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("series.Fig9/NN@2048"), 1800.0);
}

TEST_F(BenchDbTest, IngestServeReport) {
  const Json doc = Json::parse(R"({
    "schema": ")" + std::string(kServeReportSchema) + R"(",
    "meta": {"backend": "native", "commit": "abc", "commit_time": 1,
             "host": "ci", "threads": 4},
    "workload": {"devices": ["Tahiti", "Cayman"], "requests": 64,
                 "seed": 42, "rate_rps": 800.0, "max_batch": 8},
    "scalars": {"p50_latency_seconds": 0.002, "throughput_rps": 750.0}
  })");
  const Record r = ingest_report(doc, "serve.json");
  EXPECT_EQ(r.bench, "serve");
  EXPECT_EQ(r.device, "Tahiti+Cayman");
  EXPECT_EQ(r.scenario, "requests=64,seed=42,rate=800,max_batch=8");
  EXPECT_DOUBLE_EQ(r.metrics.at("throughput_rps"), 750.0);
}

TEST_F(BenchDbTest, IngestRejectsAnUnsupportedSchemaByName) {
  // Only bench-v1 and serve-v1 reports are ingestible; the error names the
  // file and the schema it refused.
  const Json doc = Json::parse(R"({
    "schema": "gemmtune-dist-v1",
    "meta": {"backend": "tree", "commit": "abc", "commit_time": 1,
             "host": "ci", "threads": 4},
    "problem": {"devices": ["Tahiti"], "prec": "DGEMM", "type": "NT",
                "m": 4096, "n": 2048, "k": 1024},
    "scalars": {"throughput.gflops": 900.0}
  })");
  try {
    ingest_report(doc, "dist.json");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("dist.json"), std::string::npos) << what;
    EXPECT_NE(what.find("unsupported schema 'gemmtune-dist-v1'"),
              std::string::npos)
        << what;
  }
}

TEST_F(BenchDbTest, IngestRejectsMissingMetaFieldByName) {
  Json doc = bench_report();
  doc["meta"].erase("threads");
  try {
    ingest_report(doc, "fig9.json");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'threads'"), std::string::npos) << what;
    EXPECT_NE(what.find("fig9.json"), std::string::npos) << what;
  }
}

TEST_F(BenchDbTest, IngestRejectsMissingMetaBlockAndUnknownSchema) {
  Json no_meta = bench_report();
  no_meta.erase("meta");
  EXPECT_THROW(ingest_report(no_meta, "x.json"), Error);

  Json bad = bench_report();
  bad["schema"] = Json("gemmtune-other-v1");
  EXPECT_THROW(ingest_report(bad, "x.json"), Error);
}

TEST_F(BenchDbTest, IngestOverridesReplaceCommitAndTime) {
  IngestOverrides ov;
  ov.commit = "seed-3";
  ov.commit_time = 33;
  const Record r = ingest_report(bench_report(), "fig9.json", ov);
  EXPECT_EQ(r.commit, "seed-3");
  EXPECT_EQ(r.commit_time, 33);
}

// -------------------------------------------------------------------
// Query

TEST_F(BenchDbTest, QueryOrdersDeterministically) {
  // Deliberately shuffled input: ordering is (commit_time, commit, bench,
  // scenario, device, prec, backend, threads).
  std::vector<Record> recs = {make_record("ccc", 3, "fig9", 1),
                              make_record("aaa", 1, "fig10", 2),
                              make_record("aaa", 1, "fig9", 3),
                              make_record("bbb", 2, "fig9", 4)};
  const std::vector<Record> q = query(recs, Filter{});
  ASSERT_EQ(q.size(), 4u);
  EXPECT_EQ(q[0].bench, "fig10");  // time 1, fig10 < fig9
  EXPECT_EQ(q[1].bench, "fig9");
  EXPECT_EQ(q[1].commit, "aaa");
  EXPECT_EQ(q[2].commit, "bbb");
  EXPECT_EQ(q[3].commit, "ccc");
}

TEST_F(BenchDbTest, QueryFiltersAndMetricPatterns) {
  std::vector<Record> recs = {make_record("aaa", 1, "fig9", 1),
                              make_record("aaa", 1, "fig10", 2)};
  Filter f;
  f.bench = "fig9";
  EXPECT_EQ(query(recs, f).size(), 1u);

  Filter prefix;
  prefix.commit = "aa";  // commit filters are prefix matches
  EXPECT_EQ(query(recs, prefix).size(), 2u);

  Filter metric;
  metric.metric = "best_g*";
  const std::vector<Record> q = query(recs, metric);
  ASSERT_EQ(q.size(), 2u);
  ASSERT_EQ(q[0].metrics.size(), 1u);
  EXPECT_EQ(q[0].metrics.begin()->first, "best_gflops");

  Filter none;
  none.metric = "nonexistent";  // records left with no metrics are dropped
  EXPECT_TRUE(query(recs, none).empty());

  EXPECT_TRUE(metric_matches("", "anything"));
  EXPECT_TRUE(metric_matches("a.b", "a.b"));
  EXPECT_FALSE(metric_matches("a.b", "a.bc"));
  EXPECT_TRUE(metric_matches("a.*", "a.bc"));
}

TEST_F(BenchDbTest, CommitSequenceIsFirstAppearanceOrder) {
  std::vector<Record> recs = {make_record("x", 5, "fig9", 1),
                              make_record("y", 1, "fig9", 2),
                              make_record("x", 5, "fig10", 3)};
  const std::vector<std::string> seq = commit_sequence(recs);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0], "x");  // append order, not timestamp order
  EXPECT_EQ(seq[1], "y");
}

// -------------------------------------------------------------------
// Gate

/// History at `value` for commits h1..hN, then one current-commit record
/// at `current`.
std::vector<Record> gate_fixture(int history, double value,
                                 double current) {
  std::vector<Record> recs;
  for (int i = 1; i <= history; ++i)
    recs.push_back(
        make_record("h" + std::to_string(i), i, "fig9", value));
  recs.push_back(make_record("cur", history + 1, "fig9", current));
  return recs;
}

/// Like gate_fixture but with ONLY best_gflops, so tolerance boundaries
/// can be probed without the reciprocal best_seconds moving too.
std::vector<Record> gflops_fixture(int history, double value,
                                   double current) {
  std::vector<Record> recs = gate_fixture(history, value, current);
  for (Record& r : recs) r.metrics.erase("best_seconds");
  return recs;
}

TEST_F(BenchDbTest, GateExactlyAtToleranceStillPasses) {
  GateOptions opt;
  opt.tol.default_rtol = 0.05;
  // best_gflops is higher-is-better: a drop of exactly 5% passes...
  GateResult at = gate(gflops_fixture(5, 100.0, 95.0), opt);
  EXPECT_TRUE(at.ok()) << at.failures.size();
  EXPECT_GT(at.checked, 0);
  // ...and any drop beyond it fails, reporting the regression geometry.
  GateResult beyond = gate(gflops_fixture(5, 100.0, 94.9), opt);
  ASSERT_EQ(beyond.failures.size(), 1u);
  const GateFailure& f = beyond.failures[0];
  EXPECT_EQ(f.metric, "best_gflops");
  EXPECT_DOUBLE_EQ(f.median, 100.0);
  EXPECT_DOUBLE_EQ(f.current, 94.9);
  EXPECT_NEAR(f.rel_change, 0.051, 1e-12);
  EXPECT_DOUBLE_EQ(f.tolerance, 0.05);
  EXPECT_EQ(f.window, 5);
}

TEST_F(BenchDbTest, GateDirectionFollowsMetricName) {
  GateOptions opt;
  opt.tol.default_rtol = 0.05;
  // best_seconds is lower-is-better (fixture sets it to 1/value):
  // a faster run (higher gflops => lower seconds) must never fail, no
  // matter how large the improvement.
  EXPECT_TRUE(gate(gate_fixture(5, 100.0, 300.0), opt).ok());
  // A slower run fails on BOTH metrics: gflops down and seconds up.
  const GateResult r = gate(gate_fixture(5, 100.0, 50.0), opt);
  EXPECT_EQ(r.failures.size(), 2u);
}

TEST_F(BenchDbTest, GateTwentyPercentRegressionFails) {
  // The acceptance criterion: a synthetic 20% regression on a gated
  // metric fails the default gate.
  GateOptions opt;
  opt.tol.default_rtol = 0.05;
  const GateResult r = gate(gate_fixture(5, 1000.0, 800.0), opt);
  EXPECT_FALSE(r.ok());
  bool found = false;
  for (const GateFailure& f : r.failures)
    if (f.metric == "best_gflops") {
      found = true;
      EXPECT_NEAR(f.rel_change, 0.20, 1e-12);
    }
  EXPECT_TRUE(found);
}

TEST_F(BenchDbTest, GateWindowsLastKAndHandlesShortHistory) {
  GateOptions opt;
  opt.last_k = 3;
  opt.tol.default_rtol = 0.05;
  // Seven historical values 10,20,...,70: the window is the LAST three
  // (50,60,70, median 60), so current=40 is a 33% drop and fails even
  // though it beats the all-time median of 40.
  std::vector<Record> recs;
  for (int i = 1; i <= 7; ++i)
    recs.push_back(make_record("h" + std::to_string(i), i, "fig9",
                               10.0 * static_cast<double>(i)));
  recs.push_back(make_record("cur", 8, "fig9", 40.0));
  GateResult r = gate(recs, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_DOUBLE_EQ(r.failures[0].median, 60.0);
  EXPECT_EQ(r.failures[0].window, 3);

  // Fewer records than K: gates against what exists (median of an even
  // window is the midpoint average).
  opt.last_k = 5;
  GateResult two = gate(gate_fixture(2, 100.0, 50.0), opt);
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.failures[0].window, 2);
  EXPECT_DOUBLE_EQ(two.failures[0].median, 100.0);
}

TEST_F(BenchDbTest, GateNoHistoryPasses) {
  std::vector<Record> recs = {make_record("cur", 1, "fig9", 100.0)};
  GateOptions opt;
  const GateResult r = gate(recs, opt);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.checked, 0);
  EXPECT_EQ(r.no_history, 2);  // both fixture metrics are new
}

TEST_F(BenchDbTest, GateSeparatesSeriesByBackendButNotThreads) {
  // Same bench measured with a different thread count contributes to the
  // same series (results are thread-count invariant); a different
  // backend forms its own series and gates independently.
  std::vector<Record> recs = gate_fixture(5, 100.0, 100.0);
  recs.back().threads = 8;
  EXPECT_TRUE(gate(recs, GateOptions{}).ok());
  Record native = make_record("cur", 6, "fig9", 40.0);
  native.backend = "native";
  recs.push_back(native);
  GateResult r = gate(recs, GateOptions{});
  EXPECT_TRUE(r.ok());  // native series has no history of its own
  EXPECT_GT(r.no_history, 0);

  GateOptions grouped;
  grouped.group_threads = true;
  // With thread grouping the threads=8 current record starts a fresh
  // series too, so nothing gates against the threads=1 history.
  const GateResult g = gate(recs, grouped);
  EXPECT_EQ(g.checked, 0);
}

TEST_F(BenchDbTest, GateSymmetricModeFlagsImprovements) {
  GateOptions opt;
  opt.symmetric = true;
  opt.tol.default_rtol = 0.05;
  // +50% "improvement" on gflops: plain gate passes, symmetric flags it.
  const std::vector<Record> recs = gate_fixture(5, 100.0, 150.0);
  EXPECT_FALSE(gate(recs, opt).ok());
  opt.symmetric = false;
  EXPECT_TRUE(gate(recs, opt).ok());
}

TEST_F(BenchDbTest, PerMetricTolerancesOverrideDefault) {
  Tolerances tol;
  tol.default_rtol = 0.01;
  tol.per_metric = {{"best_gflops", 0.5}, {"series.*", 0.25}};
  EXPECT_DOUBLE_EQ(tol.for_metric("best_gflops"), 0.5);
  EXPECT_DOUBLE_EQ(tol.for_metric("series.Fig9/NN@1024"), 0.25);
  EXPECT_DOUBLE_EQ(tol.for_metric("best_seconds"), 0.01);

  GateOptions opt;
  opt.tol = tol;
  // 20% drop passes under the loosened per-metric tolerance.
  EXPECT_TRUE(gate(gflops_fixture(5, 100.0, 80.0), opt).ok());
}

TEST(BenchDbLowerIsBetter, NameHeuristic) {
  EXPECT_TRUE(lower_is_better("best_seconds"));
  EXPECT_TRUE(lower_is_better("p99_latency_seconds"));
  EXPECT_TRUE(lower_is_better("rejected"));
  // Serving-core tail percentiles and overload counters.
  EXPECT_TRUE(lower_is_better("hist.p99_ms"));
  EXPECT_TRUE(lower_is_better("class.SGEMM.NN.64x64x64.p999_ms"));
  EXPECT_TRUE(lower_is_better("shed.queue_full"));
  EXPECT_TRUE(lower_is_better("shed.expired"));
  EXPECT_FALSE(lower_is_better("best_gflops"));
  EXPECT_FALSE(lower_is_better("throughput_rps"));
  EXPECT_FALSE(lower_is_better("speedup.completed_vs_serial"));
}

// -------------------------------------------------------------------
// Compare

TEST_F(BenchDbTest, CompareReportsIgnoresWallClockSections) {
  Json a = bench_report();
  Json b = bench_report();
  b["metrics"] = Json::parse(R"({"spans": {"x": {"total_ns": 123}}})");
  b["meta"]["host"] = Json("elsewhere");
  std::ostringstream out;
  EXPECT_EQ(compare_reports(a, b, 1e-4, out), 0) << out.str();

  b["scalars"]["best_gflops"] = Json(1024.0);  // real divergence
  std::ostringstream out2;
  EXPECT_GT(compare_reports(a, b, 1e-4, out2), 0);
  EXPECT_NE(out2.str().find("best_gflops"), std::string::npos);
}

TEST_F(BenchDbTest, CompareCommitsResolvesPrefixes) {
  std::vector<Record> recs = {make_record("aaa111", 1, "fig9", 100.0),
                              make_record("bbb222", 2, "fig9", 100.0)};
  std::ostringstream out;
  EXPECT_EQ(compare_commits(recs, "aaa", "bbb", Tolerances{}, out), 0);

  recs[1].metrics["best_gflops"] = 90.0;
  std::ostringstream out2;
  EXPECT_GT(compare_commits(recs, "aaa", "bbb", Tolerances{}, out2), 0);
  EXPECT_THROW(compare_commits(recs, "zzz", "bbb", Tolerances{}, out2),
               Error);
}

// -------------------------------------------------------------------
// Trend

TEST_F(BenchDbTest, SparklineScalesToOwnRange) {
  EXPECT_EQ(sparkline({1.0, 1.0, 1.0}), "▁▁▁");
  const std::string s = sparkline({0.0, 7.0});
  EXPECT_EQ(s, "▁█");  // min -> lowest block, max -> full block
}

TEST_F(BenchDbTest, TrendTracksCommitTrajectory) {
  std::vector<Record> recs;
  for (int i = 1; i <= 4; ++i)
    recs.push_back(make_record("c" + std::to_string(i), i, "fig9",
                               100.0 + static_cast<double>(i)));
  const std::vector<TrendSeries> all = trend(recs, Filter{}, 0);
  ASSERT_EQ(all.size(), 2u);  // one series per metric, key-sorted
  EXPECT_EQ(all[0].metric, "best_gflops");
  ASSERT_EQ(all[0].values.size(), 4u);
  EXPECT_DOUBLE_EQ(all[0].values.front(), 101.0);
  EXPECT_DOUBLE_EQ(all[0].values.back(), 104.0);

  // last_k trims to the trailing commits of the trajectory.
  const std::vector<TrendSeries> tail = trend(recs, Filter{}, 2);
  ASSERT_EQ(tail[0].values.size(), 2u);
  EXPECT_DOUBLE_EQ(tail[0].values.front(), 103.0);

  std::ostringstream out;
  print_trend(all, out);
  EXPECT_NE(out.str().find("best_gflops"), std::string::npos);
  EXPECT_NE(out.str().find("▁"), std::string::npos);
}

TEST_F(BenchDbTest, TrendHtmlIsSelfContainedAndDeterministic) {
  std::vector<Record> recs;
  for (int i = 1; i <= 3; ++i)
    recs.push_back(make_record("c" + std::to_string(i), i, "fig9",
                               100.0 * static_cast<double>(i)));
  const std::vector<TrendSeries> series = trend(recs, Filter{}, 0);
  const std::string html_path = path_ + ".html";
  write_trend_html(series, html_path);
  std::ifstream in(html_path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string html = buf.str();
  EXPECT_NE(html.find("<svg"), std::string::npos);
  EXPECT_NE(html.find("best_gflops"), std::string::npos);
  EXPECT_EQ(html.find("http://"), std::string::npos);   // no external
  EXPECT_EQ(html.find("https://"), std::string::npos);  // resources

  write_trend_html(series, html_path + "2");
  std::ifstream in2(html_path + "2");
  std::stringstream buf2;
  buf2 << in2.rdbuf();
  EXPECT_EQ(html, buf2.str());  // byte-identical re-render
  std::remove(html_path.c_str());
  std::remove((html_path + "2").c_str());
}

// -------------------------------------------------------------------
// CLI round trip

TEST_F(BenchDbTest, CliIngestQueryGateRoundTrip) {
  const std::string report = path_ + ".report.json";
  {
    std::ofstream out(report);
    out << bench_report().dump();
  }
  std::ostringstream out;
  EXPECT_EQ(run_cli({"ingest", report, "--db", path_, "--commit", "s1",
                     "--time", "1"},
                    out),
            0);
  EXPECT_EQ(run_cli({"ingest", report, "--db", path_, "--commit", "s2",
                     "--time", "2"},
                    out),
            0);
  EXPECT_EQ(run_cli({"query", "--db", path_}, out), 0);
  EXPECT_NE(out.str().find("fig9_tahiti"), std::string::npos);
  EXPECT_EQ(run_cli({"gate", "--db", path_, "--last", "5"}, out), 0);
  EXPECT_EQ(run_cli({"compare", "--db", path_, "s1", "s2"}, out), 0);

  // Bad usage paths return nonzero instead of throwing.
  std::ostringstream err;
  EXPECT_NE(run_cli({"frobnicate"}, err), 0);
  EXPECT_NE(run_cli({"ingest", "/nonexistent.json", "--db", path_}, err),
            0);
  std::remove(report.c_str());
}

}  // namespace
}  // namespace gemmtune::benchdb
