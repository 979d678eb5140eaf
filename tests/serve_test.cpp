// Serving subsystem tests: workload generator determinism, trace round
// trip, admission-queue backpressure/ordering/deadline semantics at
// several shard counts, thread-count invariance of the full report,
// warm-cache persistence, and the batched-vs-unbatched throughput
// guarantee.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "serve/server.hpp"
#include "serve/sharded_queue.hpp"
#include "serve/workload.hpp"

namespace gemmtune {
namespace {

using codegen::Precision;
using serve::BatchRecord;
using serve::GemmRequest;
using serve::GemmResponse;
using serve::GemmServer;
using serve::RequestStatus;
using serve::ServeOptions;
using serve::ServeOutcome;
using serve::ShapeClass;
using serve::ShardedQueue;
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

TEST(ShapeClassTest, QuantizesToTileMultiples) {
  EXPECT_EQ(ShapeClass::quantize(1), 16);
  EXPECT_EQ(ShapeClass::quantize(16), 16);
  EXPECT_EQ(ShapeClass::quantize(17), 32);
  EXPECT_EQ(ShapeClass::quantize(50), 64);
  EXPECT_EQ(ShapeClass::quantize(64), 64);
  // 50^3 and 64^3 SGEMM NN requests share one batch class.
  GemmRequest a = small_request(0);
  GemmRequest b = small_request(1);
  a.M = a.N = a.K = 50;
  EXPECT_EQ(ShapeClass::of(a), ShapeClass::of(b));
}

TEST(WorkloadTest, GeneratorIsDeterministic) {
  WorkloadSpec spec;
  spec.requests = 200;
  spec.seed = 7;
  const auto a = serve::generate_workload(spec);
  const auto b = serve::generate_workload(spec);
  ASSERT_EQ(a.size(), 200u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].M, b[i].M);
    EXPECT_EQ(a[i].prec, b[i].prec);
    EXPECT_EQ(a[i].arrival_seconds, b[i].arrival_seconds);
    EXPECT_EQ(a[i].deadline_seconds, b[i].deadline_seconds);
  }
  WorkloadSpec other = spec;
  other.seed = 8;
  const auto c = serve::generate_workload(other);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i)
    any_diff |= a[i].M != c[i].M || a[i].arrival_seconds !=
                                        c[i].arrival_seconds;
  EXPECT_TRUE(any_diff);
}

TEST(WorkloadTest, ArrivalsSortedAndDeadlinesAfterArrival) {
  WorkloadSpec spec;
  spec.requests = 300;
  const auto reqs = serve::generate_workload(spec);
  for (std::size_t i = 1; i < reqs.size(); ++i)
    EXPECT_LE(reqs[i - 1].arrival_seconds, reqs[i].arrival_seconds);
  for (const auto& r : reqs) {
    EXPECT_GT(r.M, 0);
    EXPECT_GT(r.N, 0);
    EXPECT_GT(r.K, 0);
    if (r.deadline_seconds > 0) {
      EXPECT_GT(r.deadline_seconds, r.arrival_seconds);
    }
  }
}

TEST(WorkloadTest, TraceFileRoundTrip) {
  WorkloadSpec spec;
  spec.requests = 50;
  spec.seed = 11;
  spec.devices = {DeviceId::Tahiti, DeviceId::Kepler};
  spec.max_batch = 8;
  spec.queue_capacity = 64;
  const auto reqs = serve::generate_workload(spec);
  const std::string path = ::testing::TempDir() + "/serve_trace.json";
  serve::save_workload_file(path, spec, reqs);
  const serve::Workload back = serve::load_workload_file(path);
  EXPECT_EQ(back.spec.seed, spec.seed);
  EXPECT_EQ(back.spec.requests, spec.requests);
  EXPECT_EQ(back.spec.max_batch, spec.max_batch);
  EXPECT_EQ(back.spec.queue_capacity, spec.queue_capacity);
  ASSERT_EQ(back.spec.devices.size(), 2u);
  EXPECT_EQ(back.spec.devices[0], DeviceId::Tahiti);
  ASSERT_EQ(back.requests.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(back.requests[i].id, reqs[i].id);
    EXPECT_EQ(back.requests[i].K, reqs[i].K);
    EXPECT_EQ(back.requests[i].arrival_seconds, reqs[i].arrival_seconds);
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, LoadCorruptTraceNamesThePath) {
  const std::string path = ::testing::TempDir() + "/serve_corrupt.json";
  {
    std::ofstream f(path);
    f << "{ nope";
  }
  try {
    serve::load_workload_file(path);
    FAIL() << "expected Error for corrupt trace";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(WorkloadTest, SpecParserRoundTrip) {
  const WorkloadSpec spec = serve::parse_spec(
      "requests=123,seed=9,rate=750,max_batch=4,queue=32,"
      "devices=Tahiti+SandyBridge");
  EXPECT_EQ(spec.requests, 123);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.rate_rps, 750.0);
  EXPECT_EQ(spec.max_batch, 4);
  EXPECT_EQ(spec.queue_capacity, 32);
  ASSERT_EQ(spec.devices.size(), 2u);
  EXPECT_EQ(spec.devices[1], DeviceId::SandyBridge);
  EXPECT_THROW(serve::parse_spec("bogus_key=1"), Error);
  EXPECT_THROW(serve::parse_spec("requests=-5"), Error);
}

TEST(WorkloadTest, SpecParserNamesUnknownKeys) {
  // A typo must fail loudly, naming the offending key and the accepted
  // ones — never silently run with the default it shadowed.
  try {
    serve::parse_spec("requets=10000");
    FAIL() << "expected an error for the unknown key";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown key 'requets'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("requests"), std::string::npos)
        << "error should list the accepted keys: " << msg;
  }
}

// The queue's behaviour must not depend on how many lock shards it uses,
// so every queue test runs at several shard counts.
constexpr int kShardCounts[] = {1, 4, 7};

TEST(ShardedQueueTest, BackpressureAndPeakDepthAtCapacity) {
  // The depth bound is global: the first 16 arrivals are admitted and the
  // rest bounce off, over five shape classes at any shard count.
  for (const int shards : kShardCounts) {
    ShardedQueue q(shards, /*max_batch=*/8, /*queue_capacity=*/16);
    for (int i = 0; i < 40; ++i) {
      GemmRequest r = small_request(i, /*arrival=*/i * 1e-6);
      r.M = r.N = r.K = 16 * (1 + i % 5);
      EXPECT_EQ(q.admit(r), i < 16) << "shards=" << shards << " id=" << i;
    }
    EXPECT_EQ(q.depth(), 16u);
    EXPECT_EQ(q.peak_depth(), 16u);
  }
}

TEST(ShardedQueueTest, PriorityThenArrivalThenIdOrdersGroups) {
  std::vector<GemmRequest> reqs;
  const auto add = [&](std::int64_t id, Precision prec, index_t n,
                       double arrival, int priority) {
    GemmRequest r = small_request(id, arrival, 0, priority);
    r.prec = prec;
    r.M = r.N = r.K = n;
    reqs.push_back(r);
  };
  add(0, Precision::SP, 64, 0.0, 0);
  add(1, Precision::DP, 64, 0.5, 2);
  add(2, Precision::SP, 128, 0.2, 2);
  add(3, Precision::DP, 128, 0.1, 0);
  add(4, Precision::SP, 64, 0.6, 5);  // joins id 0's group behind its head
  add(5, Precision::SP, 32, 0.0, 0);  // ties id 0 on priority and arrival
  for (const int shards : kShardCounts) {
    ShardedQueue q(shards, 16, 64);
    for (const auto& r : reqs) ASSERT_TRUE(q.admit(r));
    std::vector<GemmRequest> expired;
    const auto views = q.group_views(1.0, expired);
    std::vector<std::int64_t> heads;
    std::vector<std::size_t> sizes;
    for (const auto& v : views) {
      heads.push_back(v.head.id);
      sizes.push_back(v.size);
      EXPECT_EQ(v.shape, ShapeClass::of(v.head));
    }
    EXPECT_EQ(heads, (std::vector<std::int64_t>{2, 1, 0, 5, 3}))
        << "shards=" << shards;
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 1, 2, 1, 1}));
    EXPECT_TRUE(expired.empty());
  }
}

TEST(ShardedQueueTest, SkimsExpiredWithoutBatchingThemAndReleasesDepth) {
  for (const int shards : kShardCounts) {
    ShardedQueue q(shards, /*max_batch=*/16, /*queue_capacity=*/64);
    ASSERT_TRUE(q.admit(small_request(0, 0.0, /*deadline=*/0.5)));
    ASSERT_TRUE(q.admit(small_request(1, 0.0, /*deadline=*/5.0)));
    ASSERT_TRUE(q.admit(small_request(2, 0.0, /*deadline=*/0.5)));
    GemmRequest lone = small_request(3, 0.0, /*deadline=*/0.5);
    lone.prec = Precision::DP;  // a group of its own
    ASSERT_TRUE(q.admit(lone));
    EXPECT_EQ(q.depth(), 4u);
    // The lone group's head is dead by t=1: skimmed, not viewed. The SGEMM
    // group's head (id 0) is skimmed too, leaving id 1 at its head.
    std::vector<GemmRequest> expired;
    const auto views = q.group_views(/*clock=*/1.0, expired);
    ASSERT_EQ(views.size(), 1u);
    EXPECT_EQ(views[0].head.id, 1);
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(q.depth(), 2u);
    // Popping meets id 2 (expired) behind id 1: it is skimmed, not batched.
    expired.clear();
    const auto batch = q.pop_from(ShapeClass::of(small_request(0)),
                                  /*clock=*/1.0, 16, expired);
    ASSERT_TRUE(batch.has_value());
    ASSERT_EQ(batch->requests.size(), 1u);
    EXPECT_EQ(batch->requests[0].id, 1);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 2);
    // Popped and expired slots are released back to the global bound.
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.depth(), 0u);
    EXPECT_EQ(q.peak_depth(), 4u);
    EXPECT_FALSE(q.pop_from(ShapeClass::of(small_request(0)), 1.0, 16,
                            expired)
                     .has_value());
  }
}

/// Fixture holding one warmed single-device server shared by the
/// simulation tests (warmup profiles two kernels, so share the cost).
class ServeSim : public ::testing::Test {
 protected:
  static GemmServer& tahiti_server() {
    static GemmServer* server = [] {
      auto* s = new GemmServer({DeviceId::Tahiti}, ServeOptions{});
      s->warmup();
      return s;
    }();
    return *server;
  }
};

TEST_F(ServeSim, BatchingCoalescesSameClassRequests) {
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < 8; ++i) reqs.push_back(small_request(i));
  const ServeOutcome batched = tahiti_server().run(reqs, 8, 64);
  // All arrive at t=0 on one idle device: one dispatch serves all eight.
  ASSERT_EQ(batched.batches.size(), 1u);
  EXPECT_EQ(batched.batches[0].size, 8);
  for (const auto& resp : batched.responses) {
    EXPECT_EQ(resp.status, RequestStatus::Completed);
    EXPECT_EQ(resp.batch_size, 8);
  }
  const ServeOutcome unbatched = tahiti_server().run(reqs, 1, 64);
  EXPECT_EQ(unbatched.batches.size(), 8u);
  // One dispatch overhead instead of eight: batching must finish sooner.
  EXPECT_LT(batched.makespan_seconds, unbatched.makespan_seconds);
}

TEST_F(ServeSim, DeadlineExpiryRejectsQueuedRequests) {
  // Six same-class requests at t=0, unbatched on one device. The deadline
  // (20us) is below the dispatch overhead alone (25us), so only the first
  // request — dispatched immediately at t=0 — beats it; every later
  // dispatch happens after the first batch finishes, past the deadline.
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back(small_request(i, 0.0, /*deadline=*/20e-6));
  const ServeOutcome out = tahiti_server().run(reqs, 1, 64);
  int completed = 0, deadline = 0;
  for (const auto& resp : out.responses) {
    completed += resp.status == RequestStatus::Completed ? 1 : 0;
    deadline += resp.status == RequestStatus::RejectedDeadline ? 1 : 0;
  }
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(deadline, 5);
}

TEST_F(ServeSim, QueueFullRejectsOnArrival) {
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < 30; ++i) reqs.push_back(small_request(i));
  const ServeOutcome out = tahiti_server().run(reqs, 1, /*queue=*/4);
  int completed = 0, queue_full = 0;
  for (const auto& resp : out.responses) {
    completed += resp.status == RequestStatus::Completed ? 1 : 0;
    queue_full += resp.status == RequestStatus::RejectedQueueFull ? 1 : 0;
  }
  // All 30 arrive at t=0 and are admitted before any dispatch runs: four
  // fill the queue, the other 26 bounce off it.
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(queue_full, 26);
  EXPECT_EQ(out.peak_queue_depth, 4u);
}

TEST(OversizedRequestTest, CompletesOnOneDeviceUnderDefaultOptions) {
  // A request beyond the generated workload's largest shape takes the same
  // earliest-completion dispatch as any other: one batch on one device.
  GemmServer server({DeviceId::Tahiti, DeviceId::SandyBridge},
                    ServeOptions{});
  server.warmup();
  std::vector<GemmRequest> reqs;
  reqs.push_back(small_request(0, 0.0, /*deadline=*/1e9));
  GemmRequest big;
  big.id = 1;
  big.type = GemmType::NN;
  big.prec = Precision::SP;
  big.M = big.N = big.K = 4096;
  big.arrival_seconds = 1e-3;
  big.deadline_seconds = 1e9;
  reqs.push_back(big);
  const ServeOutcome out = server.run(reqs, 16, 64);
  for (const GemmResponse& resp : out.responses) {
    EXPECT_EQ(resp.status, RequestStatus::Completed);
    EXPECT_GE(resp.device_index, 0);
  }
  const GemmResponse& resp = out.responses[1];
  ASSERT_GE(resp.batch_id, 0);
  const BatchRecord& b =
      out.batches.at(static_cast<std::size_t>(resp.batch_id));
  EXPECT_EQ(b.device_index, resp.device_index);
  EXPECT_EQ(b.size, 1);
}

TEST(OversizedRequestTest, WithoutDeadlineCompletes) {
  // A deadline <= 0 means "no deadline": dispatched after t = 0, the
  // request must still run, not be rejected.
  GemmServer server({DeviceId::Tahiti, DeviceId::SandyBridge},
                    ServeOptions{});
  server.warmup();
  GemmRequest big;
  big.id = 0;
  big.type = GemmType::NN;
  big.prec = Precision::SP;
  big.M = big.N = big.K = 4096;
  big.arrival_seconds = 1e-3;
  big.deadline_seconds = 0;
  const ServeOutcome out = server.run({big}, 16, 64);
  EXPECT_EQ(out.responses[0].status, RequestStatus::Completed)
      << serve::to_string(out.responses[0].status);
  EXPECT_GE(out.responses[0].device_index, 0);
}

TEST(ServeReportTest, IdenticalAcrossThreadCountsAndRuns) {
  WorkloadSpec spec;
  spec.requests = 150;
  spec.seed = 3;
  spec.devices = {DeviceId::Tahiti, DeviceId::Kepler, DeviceId::SandyBridge};
  const auto reqs = serve::generate_workload(spec);
  ServeOptions opt1;
  opt1.threads = 1;
  ServeOptions opt4;
  opt4.threads = 4;
  std::vector<std::string> dumps;
  for (const ServeOptions& opt : {opt1, opt4, opt1}) {
    GemmServer server(spec.resolved_devices(), opt);
    server.warmup();
    const ServeOutcome batched = server.run(reqs, spec.max_batch,
                                            spec.queue_capacity);
    const ServeOutcome unbatched = server.run(reqs, 1, spec.queue_capacity);
    dumps.push_back(
        serve::build_report(spec, reqs, batched, unbatched, opt).dump(2));
  }
  EXPECT_EQ(dumps[0], dumps[1]) << "thread count changed the report";
  EXPECT_EQ(dumps[0], dumps[2]) << "re-run changed the report";
}

TEST(ServeReportTest, BatchedThroughputAtLeastBaseline) {
  // A bursty small-GEMM workload (the regime batching exists for): same
  // class, all queued at once.
  WorkloadSpec spec;
  spec.requests = 64;
  spec.devices = {DeviceId::Tahiti};
  std::vector<GemmRequest> reqs;
  for (int i = 0; i < spec.requests; ++i) reqs.push_back(small_request(i));
  GemmServer server(spec.resolved_devices(), ServeOptions{});
  server.warmup();
  const ServeOutcome batched = server.run(reqs, 16, 512);
  const ServeOutcome unbatched = server.run(reqs, 1, 512);
  const Json report =
      serve::build_report(spec, reqs, batched, unbatched, ServeOptions{});
  const Json& s = report.at("scalars");
  EXPECT_EQ(s.at("requests.completed").as_int(), 64);
  EXPECT_EQ(s.at("baseline.requests.completed").as_int(), 64);
  EXPECT_GE(s.at("speedup.throughput").as_number(), 1.0);
  EXPECT_GT(s.at("batches.avg_size").as_number(), 1.0);
  // Percentiles must be ordered.
  EXPECT_LE(s.at("latency_ms.p50").as_number(),
            s.at("latency_ms.p95").as_number());
  EXPECT_LE(s.at("latency_ms.p95").as_number(),
            s.at("latency_ms.p99").as_number());
  EXPECT_LE(s.at("latency_ms.p99").as_number(),
            s.at("latency_ms.max").as_number());
}

TEST(WarmCacheTest, RoundTripThenCorruptionRecovery) {
  const std::string path = ::testing::TempDir() + "/serve_cache.json";
  std::remove(path.c_str());
  ServeOptions opt;
  opt.cache_path = path;
  {
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_EQ(info.loaded, 0u);
    EXPECT_EQ(info.profiled, 2u);  // DGEMM + SGEMM
    EXPECT_FALSE(info.cache_ignored);
  }
  {
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good()) << "atomic save must not leave temp files";
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_EQ(info.loaded, 2u);
    EXPECT_EQ(info.profiled, 0u);
  }
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{ corrupt";
  }
  {
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_TRUE(info.cache_ignored);
    EXPECT_NE(info.cache_error.find(path), std::string::npos);
    EXPECT_EQ(info.profiled, 2u);  // re-profiled from scratch
  }
  {
    // The corrupt file was rewritten with good contents.
    GemmServer server({DeviceId::Cayman}, opt);
    const auto info = server.warmup();
    EXPECT_EQ(info.loaded, 2u);
    EXPECT_FALSE(info.cache_ignored);
  }
  std::remove(path.c_str());
}

TEST(ServerGuardsTest, RunBeforeWarmupThrows) {
  GemmServer server({DeviceId::Tahiti}, ServeOptions{});
  std::vector<GemmRequest> reqs{small_request(0)};
  EXPECT_THROW(server.run(reqs, 1, 4), Error);
}

TEST(ServerGuardsTest, DuplicateRequestIdsThrow) {
  GemmServer server({DeviceId::Tahiti}, ServeOptions{});
  server.warmup();
  std::vector<GemmRequest> reqs{small_request(5), small_request(5)};
  EXPECT_THROW(server.run(reqs, 1, 4), Error);
}

}  // namespace
}  // namespace gemmtune
