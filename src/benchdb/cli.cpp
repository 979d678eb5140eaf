// The `gemmtune bench-db` verb: the CLI face of the experiment store.
//
//   ingest FILE... --db PATH     consume bench/serve reports
//   query  --db PATH [filters]   list records (table or --json)
//   compare BASE CUR             diff two report files (compare_bench's
//                                old job), or two commits with --db
//   trend  --db PATH             sparkline table + optional --html report
//   gate   --db PATH             trajectory regression gate for CI
#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>

#include "benchdb/benchdb.hpp"
#include "common/error.hpp"
#include "common/keyval.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"

namespace gemmtune::benchdb {

namespace {

/// `--flag value` / `--flag=value` parsing (same contract as the serve
/// verb): returns the value and advances `i` when args[i] is `flag`,
/// nullopt otherwise.
std::optional<std::string> flag_value(const std::vector<std::string>& args,
                                      std::size_t& i, const char* flag) {
  const std::string& a = args[i];
  const std::string eq = std::string(flag) + "=";
  if (a.rfind(eq, 0) == 0) return a.substr(eq.size());
  if (a == flag) {
    check(i + 1 < args.size(), std::string(flag) + " requires a value");
    return args[++i];
  }
  return std::nullopt;
}

int parse_int(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const int n = std::stoi(value, &used);
    check(used == value.size(),
          flag + " expects an integer, got '" + value + "'");
    return n;
  } catch (const Error&) {
    throw;
  } catch (...) {
    fail(flag + " expects an integer, got '" + value + "'");
  }
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const double d = std::stod(value, &used);
    check(used == value.size(),
          flag + " expects a number, got '" + value + "'");
    return d;
  } catch (const Error&) {
    throw;
  } catch (...) {
    fail(flag + " expects a number, got '" + value + "'");
  }
}

Json load_json_file(const std::string& path) {
  std::ifstream f(path);
  check(f.good(), "cannot open " + path);
  std::ostringstream ss;
  ss << f.rdbuf();
  try {
    return Json::parse(ss.str());
  } catch (const Error& e) {
    fail("malformed JSON in '" + path + "': " + e.what());
  }
}

/// Loads a database and reports (but tolerates) corrupt lines, so one
/// torn append can never wedge CI.
std::vector<Record> load_reporting(const std::string& db_path,
                                   std::ostream& out) {
  const LoadResult loaded = load_db(db_path);
  if (!loaded.skipped.empty()) {
    out << "warning: " << db_path << ": skipped "
        << loaded.skipped.size() << " corrupt line(s):\n";
    for (const JsonlBadLine& bad : loaded.skipped)
      out << strf("  line %lld (byte offset %lld): ",
                  static_cast<long long>(bad.line_no),
                  static_cast<long long>(bad.byte_offset))
          << bad.error << "\n";
  }
  return loaded.records;
}

/// Shared filter flags of query/trend/gate. Returns true when args[i]
/// was consumed.
bool parse_filter_flag(const std::vector<std::string>& args, std::size_t& i,
                       Filter& f) {
  if (auto v = flag_value(args, i, "--commit")) f.commit = *v;
  else if (auto v = flag_value(args, i, "--device")) f.device = *v;
  else if (auto v = flag_value(args, i, "--prec")) f.prec = *v;
  else if (auto v = flag_value(args, i, "--backend")) f.backend = *v;
  else if (auto v = flag_value(args, i, "--bench")) f.bench = *v;
  else if (auto v = flag_value(args, i, "--scenario")) f.scenario = *v;
  else if (auto v = flag_value(args, i, "--threads"))
    f.threads = parse_int("--threads", *v);
  else if (auto v = flag_value(args, i, "--metric")) f.metric = *v;
  else return false;
  return true;
}

/// `--tol name=rtol` (name may end in '*'); appended to `tol.per_metric`.
void parse_tol(const std::string& value, Tolerances& tol) {
  const auto eq = value.find('=');
  check(eq != std::string::npos && eq > 0,
        "--tol expects METRIC=RTOL, got '" + value + "'");
  tol.per_metric.emplace_back(
      value.substr(0, eq), parse_double("--tol", value.substr(eq + 1)));
}

int cmd_ingest(const std::vector<std::string>& args, std::ostream& out) {
  std::string db_path;
  IngestOverrides ov;
  std::vector<std::string> files;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--db")) db_path = *v;
    else if (auto v = flag_value(args, i, "--commit")) ov.commit = *v;
    else if (auto v = flag_value(args, i, "--time"))
      ov.commit_time = parse_int("--time", *v);
    else if (starts_with(args[i], "--"))
      fail("ingest: unknown flag '" + args[i] + "'");
    else files.push_back(args[i]);
  }
  check(!db_path.empty(), "ingest: --db PATH is required");
  check(!files.empty(), "usage: bench-db ingest FILE... --db PATH");
  std::vector<Record> records;
  for (const std::string& file : files)
    records.push_back(ingest_report(load_json_file(file), file, ov));
  append_db(db_path, records);
  out << "ingested " << records.size() << " record(s) into " << db_path
      << "\n";
  return 0;
}

int cmd_query(const std::vector<std::string>& args, std::ostream& out) {
  std::string db_path;
  Filter f;
  bool as_json = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--db")) db_path = *v;
    else if (args[i] == "--json") as_json = true;
    else if (parse_filter_flag(args, i, f)) continue;
    else fail("query: unknown flag '" + args[i] + "'");
  }
  check(!db_path.empty(), "query: --db PATH is required");
  const auto records = query(load_reporting(db_path, out), f);
  if (as_json) {
    Json arr = Json::array();
    for (const Record& r : records) arr.push_back(r.to_json());
    out << arr.dump(2) << "\n";
    return 0;
  }
  TextTable t;
  const bool per_metric = !f.metric.empty();
  if (per_metric)
    t.set_header({"Commit", "Bench", "Scenario", "Device", "Prec",
                  "Backend", "Thr", "Metric", "Value"});
  else
    t.set_header({"Commit", "Bench", "Scenario", "Device", "Prec",
                  "Backend", "Thr", "Metrics"});
  for (const Record& r : records) {
    const std::string commit = r.commit.substr(0, 12);
    if (per_metric) {
      for (const auto& [name, value] : r.metrics)
        t.add_row({commit, r.bench, r.scenario, r.device, r.prec,
                   r.backend, std::to_string(r.threads), name,
                   strf("%.6g", value)});
    } else {
      t.add_row({commit, r.bench, r.scenario, r.device, r.prec, r.backend,
                 std::to_string(r.threads),
                 std::to_string(r.metrics.size())});
    }
  }
  t.print(out);
  out << records.size() << " record(s)\n";
  return 0;
}

int cmd_compare(const std::vector<std::string>& args, std::ostream& out) {
  std::string db_path, commit;
  Tolerances tol;
  int last_k = 0;
  std::vector<std::string> refs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--db")) db_path = *v;
    else if (auto v = flag_value(args, i, "--rtol"))
      tol.default_rtol = parse_double("--rtol", *v);
    else if (auto v = flag_value(args, i, "--tol")) parse_tol(*v, tol);
    else if (auto v = flag_value(args, i, "--last"))
      last_k = parse_int("--last", *v);
    else if (auto v = flag_value(args, i, "--commit")) commit = *v;
    else if (starts_with(args[i], "--"))
      fail("compare: unknown flag '" + args[i] + "'");
    else refs.push_back(args[i]);
  }
  int mismatches = 0;
  if (db_path.empty()) {
    // File mode: two report documents (the compare_bench.py contract).
    check(refs.size() == 2,
          "usage: bench-db compare BASELINE CURRENT [--rtol X]");
    const Json base = load_json_file(refs[0]);
    const Json cur = load_json_file(refs[1]);
    std::ostringstream detail;
    mismatches = compare_reports(base, cur, tol.default_rtol, detail);
    const std::string name = base.contains("bench")
                                 ? base.at("bench").as_string()
                                 : base.contains("schema")
                                       ? base.at("schema").as_string()
                                       : "?";
    if (mismatches > 0) {
      out << "[" << name << "] " << mismatches
          << " mismatch(es) vs baseline:\n" << detail.str();
    } else {
      out << "[" << name << "] OK: deterministic sections match (rtol "
          << strf("%g", tol.default_rtol) << ")\n";
    }
  } else {
    const auto records = load_reporting(db_path, out);
    if (last_k > 0) {
      // last-K-vs-current: symmetric gate against the window median.
      check(refs.empty(),
            "compare: --last takes no positional refs (use --commit)");
      GateOptions opt;
      opt.last_k = last_k;
      opt.tol = tol;
      opt.commit = commit;
      opt.symmetric = true;
      const GateResult res = gate(records, opt);
      mismatches = static_cast<int>(res.failures.size());
      for (const GateFailure& fl : res.failures)
        out << "  " << fl.key << " " << fl.metric << ": "
            << strf("median(last %d) %.6g vs current %.6g "
                    "(%+.2f%%, rtol %g)",
                    fl.window, fl.median, fl.current,
                    (fl.current - fl.median) /
                        (fl.median != 0 ? std::abs(fl.median) : 1) * 100,
                    fl.tolerance)
            << "\n";
      out << (mismatches == 0 ? "compare OK: " : "compare FAILED: ")
          << res.checked << " metric series vs last-" << last_k
          << " median, " << mismatches << " mismatch(es)\n";
    } else {
      check(refs.size() == 2,
            "usage: bench-db compare --db PATH REF_A REF_B, or "
            "--db PATH --last K");
      std::ostringstream detail;
      mismatches =
          compare_commits(records, refs[0], refs[1], tol, detail);
      if (mismatches > 0)
        out << refs[0] << " vs " << refs[1] << ": " << mismatches
            << " mismatch(es):\n" << detail.str();
      else
        out << refs[0] << " vs " << refs[1] << ": OK (rtol "
            << strf("%g", tol.default_rtol) << ")\n";
    }
  }
  return mismatches == 0 ? 0 : 1;
}

int cmd_trend(const std::vector<std::string>& args, std::ostream& out) {
  std::string db_path, html_path;
  Filter f;
  int last_k = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--db")) db_path = *v;
    else if (auto v = flag_value(args, i, "--last"))
      last_k = parse_int("--last", *v);
    else if (auto v = flag_value(args, i, "--html")) html_path = *v;
    else if (parse_filter_flag(args, i, f)) continue;
    else fail("trend: unknown flag '" + args[i] + "'");
  }
  check(!db_path.empty(), "trend: --db PATH is required");
  const auto series = trend(load_reporting(db_path, out), f, last_k);
  print_trend(series, out);
  if (!html_path.empty()) {
    write_trend_html(series, html_path);
    out << "wrote " << html_path << "\n";
  }
  return 0;
}

int cmd_gate(const std::vector<std::string>& args, std::ostream& out) {
  std::string db_path;
  Filter f;
  GateOptions opt;
  opt.tol.default_rtol = 0.05;  // trajectory gates are coarser than rtol
                                // diffs: catch real drift, not noise
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (auto v = flag_value(args, i, "--db")) db_path = *v;
    else if (auto v = flag_value(args, i, "--last"))
      opt.last_k = parse_int("--last", *v);
    else if (auto v = flag_value(args, i, "--rtol"))
      opt.tol.default_rtol = parse_double("--rtol", *v);
    else if (auto v = flag_value(args, i, "--tol")) parse_tol(*v, opt.tol);
    else if (args[i] == "--group-threads") opt.group_threads = true;
    else if (parse_filter_flag(args, i, f)) continue;
    else fail("gate: unknown flag '" + args[i] + "'");
  }
  check(!db_path.empty(), "gate: --db PATH is required");
  // The --commit filter doubles as the commit under test.
  opt.commit = f.commit;
  f.commit.clear();
  std::vector<Record> records;
  for (const Record& r : load_reporting(db_path, out))
    if (f.matches(r)) records.push_back(r);
  const GateResult res = gate(records, opt);
  if (!res.ok()) {
    TextTable t;
    t.set_header({"Series", "Metric", "Median", "Current", "Worse by",
                  "Tolerance", "Window"});
    for (const GateFailure& fl : res.failures)
      t.add_row({fl.key, fl.metric, strf("%.6g", fl.median),
                 strf("%.6g", fl.current), strf("%.2f%%", fl.rel_change * 100),
                 strf("%g", fl.tolerance), std::to_string(fl.window)});
    t.print(out);
  }
  out << (res.ok() ? "gate OK: " : "gate FAILED: ") << res.checked
      << " metric series gated against the last-" << opt.last_k
      << " median (" << res.no_history << " new, "
      << res.failures.size() << " regression(s))\n";
  return res.ok() ? 0 : 1;
}

int usage(std::ostream& out) {
  out << "usage: gemmtune bench-db <subcommand> [flags]\n"
         "subcommands:\n"
         "  ingest FILE... --db PATH [--commit C] [--time T]\n"
         "      append bench/serve report files as experiment\n"
         "      records (key fields come from each report's meta block)\n"
         "  query --db PATH [--commit C] [--bench B] [--scenario S]\n"
         "        [--device D] [--prec P] [--backend B] [--threads N]\n"
         "        [--metric M] [--json]\n"
         "      list records, deterministically ordered\n"
         "  compare BASELINE CURRENT [--rtol X]\n"
         "      diff two report files' deterministic sections\n"
         "  compare --db PATH REF_A REF_B | --db PATH --last K\n"
         "      diff two commits, or the current commit vs the median of\n"
         "      the last K records per metric\n"
         "  trend --db PATH [--last K] [filters] [--html FILE]\n"
         "      per-metric trajectory sparklines (terminal + HTML)\n"
         "  gate --db PATH [--last K] [--rtol X] [--tol METRIC=X]...\n"
         "       [--commit C] [filters] [--group-threads]\n"
         "      fail when the current commit is worse than the last-K\n"
         "      median by more than the metric's tolerance\n";
  return 2;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out) {
  try {
    if (args.empty()) return usage(out);
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (args[0] == "ingest") return cmd_ingest(rest, out);
    if (args[0] == "query") return cmd_query(rest, out);
    if (args[0] == "compare") return cmd_compare(rest, out);
    if (args[0] == "trend") return cmd_trend(rest, out);
    if (args[0] == "gate") return cmd_gate(rest, out);
    fail_unknown_value("bench-db", args[0],
                       {"ingest", "query", "compare", "trend", "gate"});
  } catch (const std::exception& e) {
    out << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace gemmtune::benchdb
