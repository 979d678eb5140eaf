// Concurrent serving core tests: latency histogram invariants,
// arrival-process modes of the workload generator, and the
// serial-vs-async differential — same seed must yield identical request
// outcomes and bit-identical GEMM checksums across shard counts and
// thread counts, with the accounting invariant (completed + shed + expired
// == generated) holding in every mode including realtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/histogram.hpp"
#include "serve/core/async_server.hpp"
#include "serve/core/differential.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace gemmtune {
namespace {

using codegen::Precision;
using serve::Arrival;
using serve::AsyncOptions;
using serve::AsyncOutcome;
using serve::AsyncServer;
using serve::DiffReport;
using serve::GemmRequest;
using serve::GemmServer;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::ServeOutcome;
using serve::ShapeClass;
using serve::WorkloadSpec;
using simcl::DeviceId;

GemmRequest small_request(std::int64_t id, double arrival = 0,
                          double deadline = 0, int priority = 0) {
  GemmRequest r;
  r.id = id;
  r.type = GemmType::NN;
  r.prec = Precision::SP;
  r.M = r.N = r.K = 64;
  r.priority = priority;
  r.arrival_seconds = arrival;
  r.deadline_seconds = deadline;
  return r;
}

// --- Latency histogram -------------------------------------------------

TEST(HistogramTest, BucketBoundsRoundTrip) {
  // Every sample must land in a bucket whose upper bound is >= the sample
  // and within the layout's relative-error bound (1/kSubBuckets).
  for (double s : {1e-9, 7e-9, 9e-9, 1e-6, 3.3e-6, 25e-6, 1e-3, 0.5, 7.0,
                   123.0}) {
    const std::size_t b = LatencyHistogram::bucket_of(s);
    const double upper = LatencyHistogram::bucket_upper_seconds(b);
    EXPECT_GE(upper * (1 + 1e-12), s) << "s=" << s;
    EXPECT_LE(upper, s * (1.0 + 1.0 / LatencyHistogram::kSubBuckets) +
                         2e-9)
        << "s=" << s;
    if (b > 0) {
      // A sample on a bucket boundary may sit exactly at the previous
      // bucket's upper bound; it must never sit below it.
      EXPECT_LE(LatencyHistogram::bucket_upper_seconds(b - 1), s);
    }
  }
}

TEST(HistogramTest, QuantilesAreConservativeAndClamped) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.99), 0.0);
  for (int i = 1; i <= 100; ++i) h.record(i * 1e-3);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min_seconds(), 1e-3);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 100e-3);
  // Nearest-rank p50 covers the 50th sample; conservative means >=.
  EXPECT_GE(h.quantile(0.50), 50e-3);
  EXPECT_LE(h.quantile(0.50), 50e-3 * 1.2);
  // The extreme quantile is clamped to the true maximum, never beyond.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100e-3);
  EXPECT_LE(h.quantile(0.999), 100e-3);
}

TEST(HistogramTest, MergeEqualsCombinedRecordAnyOrder) {
  std::vector<double> samples;
  std::uint64_t state = 12345;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    samples.push_back(1e-9 * static_cast<double>(state % 1000000000ULL));
  }
  LatencyHistogram whole;
  for (double s : samples) whole.record(s);
  // Split across three "executors" in a different order, then merge.
  LatencyHistogram a, b, c;
  for (std::size_t i = samples.size(); i-- > 0;)
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).record(samples[i]);
  LatencyHistogram merged;
  merged.merge(b);
  merged.merge(a);
  merged.merge(c);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.max_seconds(), whole.max_seconds());
  for (double q : {0.5, 0.9, 0.99, 0.999})
    EXPECT_DOUBLE_EQ(merged.quantile(q), whole.quantile(q)) << "q=" << q;
  const Json j = whole.summary_json();
  EXPECT_EQ(j.at("count").as_int(), 500);
  EXPECT_GT(j.at("p99_ms").as_number(), j.at("p50_ms").as_number() * 0.99);
}

// --- Shape class helpers -----------------------------------------------

TEST(ShapeClassTest, ToStringAndHash) {
  const GemmRequest r = small_request(0);
  EXPECT_EQ(to_string(ShapeClass::of(r)), "SGEMM.NN.64x64x64");
  GemmRequest other = small_request(1);
  other.prec = Precision::DP;
  EXPECT_EQ(serve::shape_class_hash(ShapeClass::of(r)),
            serve::shape_class_hash(ShapeClass::of(r)));
  EXPECT_NE(serve::shape_class_hash(ShapeClass::of(r)),
            serve::shape_class_hash(ShapeClass::of(other)));
}

// --- Arrival processes -------------------------------------------------

TEST(ArrivalTest, PoissonIsTheLegacyDefaultStream) {
  WorkloadSpec legacy;
  legacy.requests = 100;
  legacy.seed = 7;
  WorkloadSpec explicit_poisson = legacy;
  explicit_poisson.arrival = Arrival::Poisson;
  const auto a = serve::generate_workload(legacy);
  const auto b = serve::generate_workload(explicit_poisson);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].M, b[i].M);
  }
}

TEST(ArrivalTest, UniformSpacingAndBurstClusters) {
  WorkloadSpec spec;
  spec.requests = 96;
  spec.seed = 3;
  spec.rate_rps = 1000;
  spec.arrival = Arrival::Uniform;
  const auto uni = serve::generate_workload(spec);
  for (std::size_t i = 1; i < uni.size(); ++i)
    EXPECT_NEAR(uni[i].arrival_seconds - uni[i - 1].arrival_seconds, 1e-3,
                1e-9);
  spec.arrival = Arrival::Burst;
  const auto burst = serve::generate_workload(spec);
  // Within a burst the arrival time is flat; it jumps between bursts.
  int jumps = 0;
  for (std::size_t i = 1; i < burst.size(); ++i) {
    const double gap =
        burst[i].arrival_seconds - burst[i - 1].arrival_seconds;
    EXPECT_GE(gap, 0.0);
    jumps += gap > 0 ? 1 : 0;
  }
  // The first burst is offset from t=0, and the remaining boundaries show
  // up as inter-arrival jumps (96 requests = 3 bursts -> 2 internal gaps).
  EXPECT_GT(burst[0].arrival_seconds, 0.0);
  EXPECT_EQ(jumps, 96 / serve::kBurstSize - 1);
}

TEST(ArrivalTest, RequestMixtureIsArrivalModeInvariant) {
  // Changing only the arrival process must not perturb which GEMMs are
  // generated — each mode consumes exactly one interarrival draw.
  WorkloadSpec spec;
  spec.requests = 80;
  spec.seed = 11;
  const auto poisson = serve::generate_workload(spec);
  spec.arrival = Arrival::Burst;
  const auto burst = serve::generate_workload(spec);
  ASSERT_EQ(poisson.size(), burst.size());
  for (std::size_t i = 0; i < poisson.size(); ++i) {
    EXPECT_EQ(poisson[i].M, burst[i].M);
    EXPECT_EQ(poisson[i].N, burst[i].N);
    EXPECT_EQ(poisson[i].K, burst[i].K);
    EXPECT_EQ(poisson[i].prec, burst[i].prec);
    EXPECT_EQ(poisson[i].type, burst[i].type);
    EXPECT_EQ(poisson[i].priority, burst[i].priority);
  }
}

TEST(ArrivalTest, SpecKeyParsesAndRejectsUnknownValues) {
  EXPECT_EQ(serve::parse_spec("arrival=uniform").arrival, Arrival::Uniform);
  EXPECT_EQ(serve::parse_spec("arrival=burst,rate=500").arrival,
            Arrival::Burst);
  try {
    serve::parse_spec("arrival=gaussian");
    FAIL() << "expected an error for the unknown arrival value";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'gaussian'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("poisson"), std::string::npos)
        << "error should list the accepted values: " << msg;
  }
}

TEST(ArrivalTest, TraceRoundTripAndBackCompat) {
  WorkloadSpec spec;
  spec.requests = 10;
  spec.arrival = Arrival::Burst;
  const auto reqs = serve::generate_workload(spec);
  const Json doc = serve::workload_json(spec, reqs);
  EXPECT_EQ(doc.at("spec").at("arrival").as_string(), "burst");
  EXPECT_EQ(serve::workload_from_json(doc).spec.arrival, Arrival::Burst);
  // A trace written before the arrival key existed loads as Poisson.
  Json old = Json::object();
  old["schema"] = doc.at("schema").as_string();
  Json sp = Json::object();
  for (const auto& [key, value] : doc.at("spec").items())
    if (key != "arrival") sp[key] = value;
  old["spec"] = std::move(sp);
  old["requests"] = doc.at("requests");
  EXPECT_EQ(serve::workload_from_json(old).spec.arrival, Arrival::Poisson);
}

// --- Differential: serial reference vs concurrent core ------------------

/// One warmed two-device server shared by the differential tests (warmup
/// profiles four kernels; share the cost across tests).
class ServeCoreSim : public ::testing::Test {
 protected:
  static GemmServer& fleet_server() {
    static GemmServer* server = [] {
      auto* s = new GemmServer({DeviceId::Tahiti, DeviceId::SandyBridge},
                               ServeOptions{});
      s->warmup();
      return s;
    }();
    return *server;
  }

  static std::vector<GemmRequest> workload(int requests, double rate,
                                           std::uint64_t seed = 7) {
    WorkloadSpec spec;
    spec.requests = requests;
    spec.seed = seed;
    spec.rate_rps = rate;
    spec.devices = {DeviceId::Tahiti, DeviceId::SandyBridge};
    return serve::generate_workload(spec);
  }
};

TEST_F(ServeCoreSim, VirtualModeMatchesSerialAcrossShardCounts) {
  const auto reqs = workload(150, 20000);
  std::vector<std::uint64_t> baseline_hash;
  for (int shards : {1, 4}) {
    AsyncOptions aopt;
    aopt.shards = shards;
    aopt.execute_max_n = 64;
    AsyncOutcome async;
    const DiffReport rep =
        serve::run_differential(fleet_server(), reqs, /*max_batch=*/8,
                                /*queue_capacity=*/64, aopt, nullptr,
                                &async);
    EXPECT_TRUE(rep.ok) << rep.detail;
    EXPECT_EQ(rep.async_completed, rep.serial_completed);
    EXPECT_GT(rep.compared_checksums, 0);
    // Bit-identical GEMM results across shard counts, not just vs serial.
    if (baseline_hash.empty())
      baseline_hash = async.result_hash;
    else
      EXPECT_EQ(async.result_hash, baseline_hash) << "shards=" << shards;
  }
}

TEST_F(ServeCoreSim, ChecksumsAreThreadCountInvariant) {
  // The functional GEMM path must produce bit-identical C buffers no
  // matter how many worker threads the engines are configured with.
  const auto reqs = workload(60, 50000, /*seed=*/13);
  std::vector<std::uint64_t> baseline;
  for (int threads : {1, 8}) {
    ServeOptions sopt;
    sopt.threads = threads;
    GemmServer server({DeviceId::Tahiti, DeviceId::SandyBridge}, sopt);
    server.warmup();
    AsyncOptions aopt;
    aopt.shards = 4;
    aopt.execute_max_n = 64;
    AsyncServer async(server, aopt);
    const AsyncOutcome out = async.run(reqs, 8, 64);
    ASSERT_EQ(out.result_hash.size(), reqs.size());
    EXPECT_GT(out.executed, 0);
    if (baseline.empty())
      baseline = out.result_hash;
    else
      EXPECT_EQ(out.result_hash, baseline) << "threads=" << threads;
  }
}

TEST_F(ServeCoreSim, AccountingInvariantHoldsUnderOverload) {
  // Saturating rate + tiny queue forces queue-full shedding; infeasible
  // shedding is armed too. Every generated request must land in exactly
  // one bucket per class.
  const auto reqs = workload(200, 500000, /*seed=*/5);
  AsyncOptions aopt;
  aopt.shards = 4;
  aopt.shed_infeasible = true;
  AsyncServer async(fleet_server(), aopt);
  const AsyncOutcome out = async.run(reqs, /*max_batch=*/4,
                                     /*queue_capacity=*/8);
  std::int64_t generated = 0, completed = 0;
  for (const auto& [shape, c] : out.classes) {
    EXPECT_EQ(c.generated,
              c.completed + c.shed_queue_full + c.shed_infeasible +
                  c.expired)
        << to_string(shape);
    EXPECT_EQ(static_cast<std::uint64_t>(c.completed), c.latency.count())
        << to_string(shape);
    generated += c.generated;
    completed += c.completed;
  }
  EXPECT_EQ(generated, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(completed + out.shed_queue_full + out.shed_infeasible +
                out.expired,
            generated);
  EXPECT_GT(out.shed_queue_full, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(completed), out.latency.count());
}

TEST_F(ServeCoreSim, RealtimeModeDrainsWithInvariantIntact) {
  // Realtime outcomes depend on the wall clock, so assert the structural
  // guarantees rather than exact schedules: every request resolves, the
  // accounting invariant holds, and latency percentiles are populated.
  const auto reqs = workload(120, 50000, /*seed=*/21);
  for (bool serial_exec : {false, true}) {
    AsyncOptions aopt;
    aopt.shards = 4;
    aopt.time_scale = 0.05;
    aopt.serial_execution = serial_exec;
    AsyncServer async(fleet_server(), aopt);
    const AsyncOutcome out = async.run(reqs, 8, 64);
    ASSERT_EQ(out.base.responses.size(), reqs.size());
    // Every response slot was written (the default request_id is -1).
    for (std::size_t i = 0; i < reqs.size(); ++i)
      EXPECT_EQ(out.base.responses[i].request_id, reqs[i].id);
    std::int64_t completed = 0;
    for (const auto& resp : out.base.responses)
      completed += resp.status == RequestStatus::Completed ? 1 : 0;
    EXPECT_EQ(completed + out.shed_queue_full + out.shed_infeasible +
                  out.expired,
              static_cast<std::int64_t>(reqs.size()));
    EXPECT_EQ(static_cast<std::uint64_t>(completed), out.latency.count());
    EXPECT_GT(out.wall_seconds, 0.0);
    if (completed > 0) {
      EXPECT_GT(out.latency.quantile(0.99), 0.0);
    }
  }
}

TEST_F(ServeCoreSim, RetunerRefreshesWithoutDisturbingAccounting) {
  const auto reqs = workload(100, 2000, /*seed=*/9);
  AsyncOptions aopt;
  aopt.shards = 2;
  aopt.time_scale = 1.0;  // 100 arrivals at 2000 rps -> ~50 ms of wall
  aopt.retune = true;
  aopt.retune_interval_ms = 5;
  AsyncServer async(fleet_server(), aopt);
  const AsyncOutcome out = async.run(reqs, 8, 64);
  EXPECT_GE(out.retunes, 1);
  std::int64_t completed = 0;
  for (const auto& resp : out.base.responses)
    completed += resp.status == RequestStatus::Completed ? 1 : 0;
  EXPECT_EQ(completed + out.shed_queue_full + out.shed_infeasible +
                out.expired,
            static_cast<std::int64_t>(reqs.size()));
}

TEST_F(ServeCoreSim, AsyncReportCarriesShedAndPercentileScalars) {
  WorkloadSpec spec;
  spec.requests = 80;
  spec.seed = 17;
  spec.rate_rps = 30000;
  spec.devices = {DeviceId::Tahiti, DeviceId::SandyBridge};
  const auto reqs = serve::generate_workload(spec);
  const ServeOutcome serial = fleet_server().run(reqs, 8, 64);
  AsyncOptions aopt;
  aopt.shards = 4;
  AsyncServer async(fleet_server(), aopt);
  const AsyncOutcome out = async.run(reqs, 8, 64);
  const Json doc = build_async_report(spec, reqs, out, serial,
                                      fleet_server().options(), aopt);
  EXPECT_EQ(doc.at("workload").at("core").as_string(), "async");
  EXPECT_EQ(doc.at("core").at("mode").as_string(), "virtual");
  const Json& sc = doc.at("scalars");
  for (const char* key :
       {"hist.p50_ms", "hist.p99_ms", "hist.p999_ms", "shed.queue_full",
        "shed.infeasible", "shed.expired", "speedup.completed_vs_serial",
        "serial.requests.completed"})
    EXPECT_TRUE(sc.contains(key)) << key;
  // Virtual mode replicates the serial policy exactly.
  EXPECT_DOUBLE_EQ(sc.at("speedup.completed_vs_serial").as_number(), 1.0);
  // Per-class percentiles are present for at least one class.
  bool any_class = false;
  for (const auto& [key, value] : sc.items())
    any_class |= key.rfind("class.", 0) == 0 &&
                 key.find(".p99_ms") != std::string::npos;
  EXPECT_TRUE(any_class);
  EXPECT_TRUE(doc.contains("per_class"));
}

}  // namespace
}  // namespace gemmtune
