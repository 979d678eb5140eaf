#include "benchdb/benchdb.hpp"
#include "common/error.hpp"
#include "common/report_version.hpp"
#include "common/strings.hpp"

namespace gemmtune::benchdb {

namespace {

/// Pulls one required field out of a report's meta block, with errors
/// that name the file and the field so a rejected ingest is actionable.
const Json& meta_field(const Json& meta, const std::string& origin,
                       const char* name) {
  check(meta.contains(name),
        "ingest: " + origin + ": meta missing required field '" + name +
            "'");
  return meta.at(name);
}

std::string join_devices(const Json& devices) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < devices.size(); ++i)
    names.push_back(devices.at(i).as_string());
  return names.empty() ? std::string("mixed") : join(names, "+");
}

/// Flattens the three deterministic bench-v1 sections into the metric
/// map. The wall-clock "metrics" (trace) section is deliberately not
/// ingested: span durations vary run to run and would make every gate
/// flaky.
void flatten_bench_sections(const Json& doc,
                            std::map<std::string, double>& out) {
  if (doc.contains("scalars")) {
    for (const auto& [name, value] : doc.at("scalars").items())
      out[name] = value.as_number();
  }
  if (doc.contains("comparisons")) {
    const Json& comps = doc.at("comparisons");
    for (std::size_t i = 0; i < comps.size(); ++i) {
      const Json& c = comps.at(i);
      out["comparison." + c.at("section").as_string() + "/" +
          c.at("label").as_string()] = c.at("measured").as_number();
    }
  }
  if (doc.contains("series")) {
    const Json& series = doc.at("series");
    for (std::size_t i = 0; i < series.size(); ++i) {
      const Json& s = series.at(i);
      const std::string prefix = "series." + s.at("section").as_string() +
                                 "/" + s.at("name").as_string() + "@";
      const Json& points = s.at("points");
      for (std::size_t p = 0; p < points.size(); ++p) {
        const Json& pt = points.at(p);
        out[prefix + std::to_string(pt.at(std::size_t{0}).as_int())] =
            pt.at(std::size_t{1}).as_number();
      }
    }
  }
}

}  // namespace

Record ingest_report(const Json& doc, const std::string& origin,
                     const IngestOverrides& ov) {
  check(doc.contains("schema"),
        "ingest: " + origin + ": document has no 'schema' field");
  const std::string schema = doc.at("schema").as_string();
  check(schema == kBenchReportSchema || schema == kServeReportSchema,
        "ingest: " + origin + ": unsupported schema '" + schema + "' (use " +
            kBenchReportSchema + " or " + kServeReportSchema + ")");
  check(doc.contains("meta"),
        "ingest: " + origin + ": report missing required field 'meta' "
        "(re-run the bench with a current build)");
  const Json& meta = doc.at("meta");

  Record r;
  r.source_schema = schema;
  r.commit = meta_field(meta, origin, "commit").as_string();
  r.commit_time = meta_field(meta, origin, "commit_time").as_int();
  r.host = meta_field(meta, origin, "host").as_string();
  r.backend = meta_field(meta, origin, "backend").as_string();
  r.threads = static_cast<int>(meta_field(meta, origin, "threads").as_int());
  r.device = "mixed";
  r.prec = "mixed";

  if (schema == kBenchReportSchema) {
    check(doc.contains("bench"),
          "ingest: " + origin + ": bench report missing 'bench' name");
    r.bench = doc.at("bench").as_string();
    r.scenario = r.bench;
    flatten_bench_sections(doc, r.metrics);
  } else {  // serve
    const Json& wl = doc.at("workload");
    r.bench = "serve";
    r.device = join_devices(wl.at("devices"));
    r.scenario = strf(
        "requests=%lld,seed=%lld,rate=%g,max_batch=%lld",
        static_cast<long long>(wl.at("requests").as_int()),
        static_cast<long long>(wl.at("seed").as_int()),
        wl.at("rate_rps").as_number(),
        static_cast<long long>(wl.at("max_batch").as_int()));
    // Concurrent-core reports tag their scenario so serial and async runs
    // of the same workload track separate trajectories.
    if (wl.contains("core"))
      r.scenario += ",core=" + wl.at("core").as_string();
    for (const auto& [name, value] : doc.at("scalars").items())
      r.metrics[name] = value.as_number();
  }

  if (!ov.commit.empty()) r.commit = ov.commit;
  if (ov.commit_time) r.commit_time = *ov.commit_time;
  check(!r.metrics.empty(),
        "ingest: " + origin + ": report has no deterministic metrics");
  return r;
}

}  // namespace gemmtune::benchdb
