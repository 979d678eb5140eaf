#include "serve/core/async_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <thread>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/report_version.hpp"
#include "common/runmeta.hpp"
#include "common/stats.hpp"
#include "kernelir/interp.hpp"
#include "serve/sharded_queue.hpp"
#include "trace/trace.hpp"

namespace gemmtune::serve {

using codegen::Precision;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

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

template <typename T>
std::uint64_t gemm_checksum(blas::GemmEngine& engine, const GemmRequest& r,
                            std::uint64_t seed) {
  Rng rng(seed);
  const bool ta = trans_a(r.type) == Transpose::Yes;
  const bool tb = trans_b(r.type) == Transpose::Yes;
  Matrix<T> A(ta ? r.K : r.M, ta ? r.M : r.K);
  Matrix<T> B(tb ? r.N : r.K, tb ? r.K : r.N);
  Matrix<T> C(r.M, r.N);
  A.fill_random(rng);
  B.fill_random(rng);
  engine.gemm<T>(trans_a(r.type), trans_b(r.type), r.M, r.N, r.K, T(1), A, B,
                 T(0), C);
  return fnv1a(C.data(), C.size() * sizeof(T));
}

/// Slot lookup + input validation shared by both modes.
std::map<std::int64_t, std::size_t> index_requests(
    const std::vector<GemmRequest>& requests) {
  std::map<std::int64_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    check(slot_of.emplace(requests[i].id, i).second,
          "AsyncServer::run: duplicate request id " +
              std::to_string(requests[i].id));
    check(i == 0 || requests[i - 1].arrival_seconds <=
                        requests[i].arrival_seconds,
          "AsyncServer::run: requests must be sorted by arrival time");
  }
  return slot_of;
}

/// Turns per-slot responses into the per-class/global shed accounting and
/// latency histograms. Pure post-processing over the response vector, so
/// it is identical however many threads produced the responses.
void finalize_accounting(const std::vector<GemmRequest>& requests,
                         const std::vector<char>& infeasible,
                         AsyncOutcome& out) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const GemmRequest& r = requests[i];
    const GemmResponse& resp = out.base.responses[i];
    ClassAccounting& c = out.classes[ShapeClass::of(r)];
    ++c.generated;
    switch (resp.status) {
      case RequestStatus::Completed:
        ++c.completed;
        c.latency.record(resp.latency_seconds);
        out.latency.record(resp.latency_seconds);
        break;
      case RequestStatus::RejectedQueueFull:
        ++c.shed_queue_full;
        ++out.shed_queue_full;
        break;
      case RequestStatus::RejectedDeadline:
        if (!infeasible.empty() && infeasible[i]) {
          ++c.shed_infeasible;
          ++out.shed_infeasible;
        } else {
          ++c.expired;
          ++out.expired;
        }
        break;
    }
  }
}

}  // namespace

std::uint64_t execute_checksum(blas::GemmEngine& engine, const GemmRequest& r,
                               std::uint64_t result_seed) {
  const std::uint64_t seed =
      result_seed ^ splitmix(static_cast<std::uint64_t>(r.id));
  return r.prec == Precision::SP ? gemm_checksum<float>(engine, r, seed)
                                 : gemm_checksum<double>(engine, r, seed);
}

AsyncServer::AsyncServer(GemmServer& server, AsyncOptions opt)
    : server_(server), opt_(opt) {
  check(server_.warmed(), "AsyncServer: server must be warmed first");
  check(opt_.shards >= 1, "AsyncServer: shards must be >= 1");
  check(opt_.time_scale >= 0, "AsyncServer: time_scale must be >= 0");
  check(opt_.retune_interval_ms > 0,
        "AsyncServer: retune_interval_ms must be > 0");
}

AsyncOutcome AsyncServer::run(const std::vector<GemmRequest>& requests,
                              int max_batch, int queue_capacity) {
  server_.ensure_estimates(requests);
  return opt_.time_scale > 0
             ? run_realtime(requests, max_batch, queue_capacity)
             : run_virtual(requests, max_batch, queue_capacity);
}

// ---------------------------------------------------------------------------
// Virtual mode: the server's discrete-event loop over this core's shard
// count, with executor threads carrying only the functional GEMM work.
// ---------------------------------------------------------------------------

AsyncOutcome AsyncServer::run_virtual(const std::vector<GemmRequest>& requests,
                                      int max_batch, int queue_capacity) {
  trace::Span span("servecore.virtual");
  const std::size_t nd = server_.devices().size();
  const auto slot_of = index_requests(requests);

  AsyncOutcome out;
  out.result_hash.assign(requests.size(), 0);

  // Per-device execution channels: the event loop hands each dispatched
  // batch's executable requests to its device's executor thread, which
  // runs the real kernel and records the checksum. Execution is a pure
  // side channel — it never feeds back into scheduling — so the outcome
  // stays bit-identical to GemmServer::run.
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::vector<GemmRequest>> tasks;
    bool done = false;
  };
  std::vector<std::unique_ptr<Channel>> channels;
  std::vector<std::thread> executors;
  std::atomic<std::int64_t> executed{0};
  DispatchHook submit_exec;
  if (opt_.execute_max_n > 0) {
    for (std::size_t d = 0; d < nd; ++d)
      channels.push_back(std::make_unique<Channel>());
    for (std::size_t d = 0; d < nd; ++d) {
      executors.emplace_back([&, d] {
        blas::GemmEngine& engine = *server_.engines()[d];
        Channel& ch = *channels[d];
        for (;;) {
          std::vector<GemmRequest> task;
          {
            std::unique_lock<std::mutex> lock(ch.mu);
            ch.cv.wait(lock, [&] { return ch.done || !ch.tasks.empty(); });
            if (ch.tasks.empty()) return;  // done and drained
            task = std::move(ch.tasks.front());
            ch.tasks.pop_front();
          }
          for (const GemmRequest& r : task) {
            out.result_hash[slot_of.at(r.id)] =
                execute_checksum(engine, r, opt_.result_seed);
            executed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    submit_exec = [&](std::size_t d, const std::vector<GemmRequest>& batch) {
      std::vector<GemmRequest> task;
      for (const GemmRequest& r : batch)
        if (std::max({r.M, r.N, r.K}) <= opt_.execute_max_n)
          task.push_back(r);
      if (task.empty()) return;
      Channel& ch = *channels[d];
      {
        std::lock_guard<std::mutex> lock(ch.mu);
        ch.tasks.push_back(std::move(task));
      }
      ch.cv.notify_one();
    };
  }

  // Executors drain their queues and exit; joined on the error path too.
  const auto stop_executors = [&] {
    for (auto& ch : channels) {
      {
        std::lock_guard<std::mutex> lock(ch->mu);
        ch->done = true;
      }
      ch->cv.notify_one();
    }
    for (auto& t : executors) t.join();
  };
  std::vector<char> infeasible;
  try {
    out.base = server_.simulate(requests, max_batch, queue_capacity,
                                opt_.shards,
                                opt_.shed_infeasible ? &infeasible : nullptr,
                                submit_exec);
  } catch (...) {
    stop_executors();
    throw;
  }
  stop_executors();

  out.executed = executed.load();
  finalize_accounting(requests, infeasible, out);
  return out;
}

// ---------------------------------------------------------------------------
// Realtime mode: arrivals paced in scaled wall clock, executors pulling
// from the shards themselves. Not deterministic (the wall clock is in the
// loop) — but the accounting invariant and the differential's completed-
// count tolerance hold, and this is the mode where executor parallelism
// buys real throughput.
// ---------------------------------------------------------------------------

AsyncOutcome AsyncServer::run_realtime(
    const std::vector<GemmRequest>& requests, int max_batch,
    int queue_capacity) {
  trace::Span span("servecore.realtime");
  using Clock = std::chrono::steady_clock;
  const ServeOptions& opt = server_.options();
  const std::size_t n = requests.size();
  const std::size_t nd = server_.devices().size();
  const auto slot_of = index_requests(requests);
  const double scale = opt_.time_scale;

  AsyncOutcome out;
  out.base.responses.resize(n);
  out.base.device_stats.resize(nd);
  out.result_hash.assign(n, 0);
  std::vector<char> infeasible(n, 0);

  // Estimate snapshot the re-tuner refreshes; executors read it under a
  // shared lock so a swap never tears a row.
  std::shared_mutex est_mu;
  std::map<ShapeClass, std::vector<PathEstimate>> est = server_.estimates();
  const auto estimate_row = [&](const ShapeClass& s) {
    std::shared_lock<std::shared_mutex> lock(est_mu);
    return est.at(s);  // copied out under the lock
  };

  const auto start_wall = Clock::now();
  const auto virtual_now = [&] {
    return std::chrono::duration<double>(Clock::now() - start_wall).count() /
           scale;
  };
  const auto sleep_until_virtual = [&](double t) {
    std::this_thread::sleep_until(
        start_wall + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t * scale)));
  };

  ShardedQueue queue(opt_.shards, max_batch, queue_capacity);
  std::atomic<bool> arrivals_done{false};
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<std::int64_t> executed{0};
  std::atomic<std::int64_t> retunes{0};
  std::atomic<bool> stop_retuner{false};

  // Modeled time each device is occupied through; the ECT placement reads
  // these instead of the serial loop's `running` array.
  std::vector<std::atomic<double>> busy_until(nd);
  for (auto& b : busy_until) b.store(0);

  const auto reject = [&](const GemmRequest& r, RequestStatus status,
                          double when) {
    GemmResponse& resp = out.base.responses[slot_of.at(r.id)];
    resp.request_id = r.id;
    resp.status = status;
    resp.finish_seconds = when;
    resp.wait_seconds = when - r.arrival_seconds;
  };

  // --- Admission thread: open-loop arrivals at the workload's pace. ---
  std::thread admitter([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const GemmRequest& r = requests[i];
      sleep_until_virtual(r.arrival_seconds);
      trace::counter_add("serve.requests", 1);
      if (opt_.shed_infeasible && r.deadline_seconds > 0) {
        const auto per_dev = estimate_row(ShapeClass::of(r));
        double best = kInf;
        for (const PathEstimate& e : per_dev)
          best = std::min(best, opt.dispatch_overhead_seconds + e.seconds);
        if (r.arrival_seconds + best > r.deadline_seconds) {
          infeasible[i] = 1;
          reject(r, RequestStatus::RejectedDeadline, r.arrival_seconds);
          trace::counter_add("serve.shed_infeasible", 1);
          continue;
        }
      }
      in_flight.fetch_add(1, std::memory_order_acq_rel);
      if (!queue.admit(r)) {
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
        reject(r, RequestStatus::RejectedQueueFull, r.arrival_seconds);
        trace::counter_add("serve.rejects_queue_full", 1);
      }
    }
    arrivals_done.store(true, std::memory_order_release);
  });

  // --- Executor threads: one per device, or one for the whole fleet. ---
  struct ExecutorLocal {
    std::vector<DeviceStats> device_stats;
    std::vector<BatchRecord> batches;
    double last_finish = 0;
  };
  const int executor_count = opt_.serial_execution ? 1 : static_cast<int>(nd);
  std::vector<ExecutorLocal> locals(
      static_cast<std::size_t>(executor_count));
  for (auto& l : locals) l.device_stats.resize(nd);
  std::atomic<std::int64_t> next_batch_id{0};

  const auto executor_loop = [&](int worker) {
    ExecutorLocal& local = locals[static_cast<std::size_t>(worker)];
    // The devices this thread plays: all of them in serial mode, else its
    // own. `mine(d)` gates dispatch, ECT always ranks every device.
    const auto mine = [&](int d) {
      return opt_.serial_execution || d == worker;
    };
    std::vector<GemmRequest> expired;
    for (;;) {
      const double clock = virtual_now();
      expired.clear();
      const auto views = queue.group_views(clock, expired);
      for (const GemmRequest& r : expired) {
        reject(r, RequestStatus::RejectedDeadline, clock);
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
      }
      std::size_t idle = 0;
      for (std::size_t d = 0; d < nd; ++d)
        if (busy_until[d].load(std::memory_order_relaxed) <= clock) ++idle;
      if (idle == 0) idle = 1;
      bool dispatched = false;
      for (const auto& view : views) {
        const auto per_dev = estimate_row(view.shape);
        int dev = -1;
        double best_ect = kInf;
        for (std::size_t d = 0; d < nd; ++d) {
          const double free_at = std::max(
              busy_until[d].load(std::memory_order_relaxed), clock);
          const double ect = free_at + opt.dispatch_overhead_seconds +
                             per_dev[d].seconds;
          if (ect < best_ect) {
            best_ect = ect;
            dev = static_cast<int>(d);
          }
        }
        if (!mine(dev)) continue;  // another executor's device is better
        const double dev_free =
            busy_until[static_cast<std::size_t>(dev)].load(
                std::memory_order_relaxed);
        if (!opt_.serial_execution && dev_free > clock)
          continue;  // this device is mid-batch; the group waits for it
        const PathEstimate& e = per_dev[static_cast<std::size_t>(dev)];
        std::size_t limit = (view.size + idle - 1) / idle;
        if (opt.max_batch_seconds > 0 && e.seconds > 0) {
          const double cap = std::floor(opt.max_batch_seconds / e.seconds);
          if (cap < static_cast<double>(limit))
            limit = static_cast<std::size_t>(std::max(cap, 1.0));
        }
        expired.clear();
        auto batch = queue.pop_from(view.shape, clock, limit, expired);
        for (const GemmRequest& r : expired) {
          reject(r, RequestStatus::RejectedDeadline, clock);
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
        if (!batch) continue;
        const double start = std::max(clock, dev_free);
        const double finish =
            start + opt.dispatch_overhead_seconds +
            e.seconds * static_cast<double>(batch->requests.size());
        busy_until[static_cast<std::size_t>(dev)].store(
            finish, std::memory_order_relaxed);
        // Optional functional execution (host time, unscaled) before the
        // modeled occupancy: the checksum side channel of virtual mode.
        if (opt_.execute_max_n > 0) {
          blas::GemmEngine& engine =
              *server_.engines()[static_cast<std::size_t>(dev)];
          for (const GemmRequest& r : batch->requests) {
            if (std::max({r.M, r.N, r.K}) > opt_.execute_max_n) continue;
            out.result_hash[slot_of.at(r.id)] =
                execute_checksum(engine, r, opt_.result_seed);
            executed.fetch_add(1, std::memory_order_relaxed);
          }
        }
        sleep_until_virtual(finish);  // occupy the device
        const std::int64_t batch_id =
            next_batch_id.fetch_add(1, std::memory_order_relaxed);
        for (const GemmRequest& r : batch->requests) {
          GemmResponse& resp = out.base.responses[slot_of.at(r.id)];
          resp.request_id = r.id;
          resp.status = RequestStatus::Completed;
          resp.finish_seconds = finish;
          resp.latency_seconds = finish - r.arrival_seconds;
          resp.wait_seconds = start - r.arrival_seconds;
          resp.device_index = dev;
          resp.batch_id = batch_id;
          resp.batch_size = static_cast<int>(batch->requests.size());
          resp.used_direct = e.used_direct;
        }
        DeviceStats& ds = local.device_stats[static_cast<std::size_t>(dev)];
        ds.batches += 1;
        ds.requests += static_cast<std::int64_t>(batch->requests.size());
        ds.busy_seconds += finish - start;
        local.batches.push_back(
            {batch_id, dev, batch->shape,
             static_cast<int>(batch->requests.size()), start, finish,
             e.used_direct});
        local.last_finish = std::max(local.last_finish, finish);
        trace::counter_add("serve.batches", 1);
        in_flight.fetch_sub(
            static_cast<std::int64_t>(batch->requests.size()),
            std::memory_order_acq_rel);
        dispatched = true;
        break;
      }
      if (!dispatched) {
        if (arrivals_done.load(std::memory_order_acquire) &&
            in_flight.load(std::memory_order_acquire) == 0)
          return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
  };
  std::vector<std::thread> executors;
  executors.reserve(static_cast<std::size_t>(executor_count));
  for (int w = 0; w < executor_count; ++w)
    executors.emplace_back(executor_loop, w);

  // --- Re-tuner thread: refreshes warm TunedDatabase entries and swaps
  // fresh estimate rows in without ever blocking the dispatch path for
  // longer than one row copy. ---
  std::thread retuner;
  if (opt_.retune) {
    retuner = std::thread([&] {
      std::size_t round = 0;
      const auto interval = std::chrono::duration<double, std::milli>(
          opt_.retune_interval_ms);
      while (!stop_retuner.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(interval);
        if (stop_retuner.load(std::memory_order_acquire)) break;
        const std::size_t d = round % nd;
        const Precision prec =
            (round / nd) % 2 == 0 ? Precision::DP : Precision::SP;
        ++round;
        // Rebuild this device's estimate column from scratch off-lock
        // (classic: a fresh Table II profile; guided: the per-class tuned
        // kernels) and swap the rows in briefly. The simulator is
        // deterministic, so the values match — the machinery (not the
        // numbers) is what this thread exercises.
        std::vector<ShapeClass> shapes;
        {
          std::shared_lock<std::shared_mutex> lock(est_mu);
          for (const auto& [s, row] : est)
            if (s.prec == prec) shapes.push_back(s);
        }
        const std::vector<PathEstimate> fresh_col =
            server_.fresh_estimates(d, prec, shapes);
        {
          std::unique_lock<std::shared_mutex> lock(est_mu);
          for (std::size_t i = 0; i < shapes.size(); ++i) {
            const auto it = est.find(shapes[i]);
            if (it != est.end()) it->second[d] = fresh_col[i];
          }
        }
        retunes.fetch_add(1, std::memory_order_relaxed);
        trace::counter_add("servecore.retunes", 1);
      }
    });
  }

  admitter.join();
  for (auto& t : executors) t.join();
  stop_retuner.store(true, std::memory_order_release);
  if (retuner.joinable()) retuner.join();

  check(queue.empty(), "AsyncServer: queue drained incompletely");
  out.base.peak_queue_depth = queue.peak_depth();
  double last_finish = 0;
  for (const ExecutorLocal& l : locals) {
    last_finish = std::max(last_finish, l.last_finish);
    for (std::size_t d = 0; d < nd; ++d) {
      out.base.device_stats[d].batches += l.device_stats[d].batches;
      out.base.device_stats[d].requests += l.device_stats[d].requests;
      out.base.device_stats[d].busy_seconds += l.device_stats[d].busy_seconds;
    }
    out.base.batches.insert(out.base.batches.end(), l.batches.begin(),
                            l.batches.end());
  }
  std::sort(out.base.batches.begin(), out.base.batches.end(),
            [](const BatchRecord& a, const BatchRecord& b) {
              return a.id < b.id;
            });
  for (const GemmResponse& r : out.base.responses)
    if (r.status == RequestStatus::Completed)
      out.base.completed_flops +=
          requests[slot_of.at(r.request_id)].flops();
  const double first_arrival = n > 0 ? requests.front().arrival_seconds : 0;
  out.base.makespan_seconds =
      last_finish > first_arrival ? last_finish - first_arrival : 0;
  out.executed = executed.load();
  out.retunes = retunes.load();
  out.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start_wall).count();
  finalize_accounting(requests, infeasible, out);
  return out;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

Json build_async_report(const WorkloadSpec& spec,
                        const std::vector<GemmRequest>& requests,
                        const AsyncOutcome& async, const ServeOutcome& serial,
                        const ServeOptions& opt, const AsyncOptions& aopt) {
  Json doc = Json::object();
  doc["schema"] = kServeReportSchema;
  doc["meta"] = run_meta_json(
      ir::to_string(ir::resolve_backend(ir::Backend::Auto)),
      configured_threads());
  Json wl = Json::object();
  wl["seed"] = static_cast<std::int64_t>(spec.seed);
  wl["requests"] = spec.requests;
  wl["rate_rps"] = spec.rate_rps;
  wl["arrival"] = to_string(spec.arrival);
  wl["core"] = "async";
  Json devs = Json::array();
  for (simcl::DeviceId id : spec.resolved_devices())
    devs.push_back(simcl::to_string(id));
  wl["devices"] = std::move(devs);
  wl["max_batch"] = spec.max_batch;
  wl["queue_capacity"] = spec.queue_capacity;
  doc["workload"] = std::move(wl);

  Json options = Json::object();
  options["dispatch_overhead_us"] = opt.dispatch_overhead_seconds * 1e6;
  options["max_batch_ms"] = opt.max_batch_seconds * 1e3;
  options["warmup_sweep_n"] = opt.warmup_sweep_n;
  doc["options"] = std::move(options);

  Json core = Json::object();
  core["mode"] = aopt.time_scale > 0 ? "realtime" : "virtual";
  core["shards"] = aopt.shards;
  core["time_scale"] = aopt.time_scale;
  core["serial_execution"] = aopt.serial_execution;
  core["shed_infeasible"] = aopt.shed_infeasible;
  core["retune"] = aopt.retune;
  core["execute_max_n"] = aopt.execute_max_n;
  // The wall clock is the one non-deterministic input; keep it out of the
  // scalar map (which CI compares exactly) and only record it for
  // realtime runs, where nothing is byte-stable anyway.
  if (aopt.time_scale > 0) core["wall_seconds"] = async.wall_seconds;
  doc["core"] = std::move(core);

  Json scalars = Json::object();
  outcome_scalars(scalars, "", requests, async.base);
  scalars["shed.queue_full"] = async.shed_queue_full;
  scalars["shed.infeasible"] = async.shed_infeasible;
  scalars["shed.expired"] = async.expired;
  scalars["requests.executed"] = async.executed;
  scalars["retune.rounds"] = async.retunes;
  scalars["hist.p50_ms"] = async.latency.quantile(0.50) * 1e3;
  scalars["hist.p99_ms"] = async.latency.quantile(0.99) * 1e3;
  scalars["hist.p999_ms"] = async.latency.quantile(0.999) * 1e3;
  for (const auto& [shape, acct] : async.classes) {
    const std::string key = "class." + to_string(shape) + ".";
    scalars[key + "completed"] = acct.completed;
    scalars[key + "p50_ms"] = acct.latency.quantile(0.50) * 1e3;
    scalars[key + "p99_ms"] = acct.latency.quantile(0.99) * 1e3;
    scalars[key + "p999_ms"] = acct.latency.quantile(0.999) * 1e3;
  }
  outcome_scalars(scalars, "serial.", requests, serial);
  const std::int64_t serial_completed =
      static_cast<std::int64_t>(
          scalars.at("serial.requests.completed").as_int());
  const std::int64_t async_completed =
      static_cast<std::int64_t>(scalars.at("requests.completed").as_int());
  scalars["speedup.completed_vs_serial"] = finite_or(
      static_cast<double>(async_completed) /
          static_cast<double>(serial_completed),
      1.0);
  scalars["speedup.throughput_vs_serial"] = finite_or(
      scalars.at("throughput.gflops").as_number() /
          scalars.at("serial.throughput.gflops").as_number(),
      1.0);
  doc["scalars"] = std::move(scalars);

  Json per_class = Json::object();
  for (const auto& [shape, acct] : async.classes) {
    Json j = Json::object();
    j["generated"] = acct.generated;
    j["completed"] = acct.completed;
    j["shed_queue_full"] = acct.shed_queue_full;
    j["shed_infeasible"] = acct.shed_infeasible;
    j["expired"] = acct.expired;
    j["latency"] = acct.latency.summary_json();
    per_class[to_string(shape)] = std::move(j);
  }
  doc["per_class"] = std::move(per_class);
  return doc;
}

}  // namespace gemmtune::serve
