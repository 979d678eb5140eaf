#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>

#include "codegen/paper_kernels.hpp"
#include "common/error.hpp"
#include "common/report_version.hpp"
#include "common/runmeta.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "kernelir/interp.hpp"
#include "serve/sharded_queue.hpp"
#include "trace/trace.hpp"

namespace gemmtune::serve {

using codegen::Precision;

GemmServer::GemmServer(std::vector<simcl::DeviceId> devices, ServeOptions opt)
    : devices_(std::move(devices)), opt_(std::move(opt)),
      pool_(opt_.threads) {
  check(!devices_.empty(), "GemmServer: need at least one device");
  check(opt_.dispatch_overhead_seconds >= 0,
        "GemmServer: dispatch overhead must be >= 0");
  if (!opt_.tune_strategy.empty()) {
    strategy_ = tuner::strategy::parse_strategy_spec(opt_.tune_strategy);
    check(opt_.tune_candidates > 0,
          "GemmServer: tune_candidates must be > 0");
    search_engines_.reserve(devices_.size());
    for (simcl::DeviceId id : devices_)
      search_engines_.push_back(std::make_unique<tuner::SearchEngine>(id));
  }
}

WarmupInfo GemmServer::warmup() {
  trace::Span span("serve.warmup");
  WarmupInfo info;
  tuner::TunedDatabase db;
  if (!opt_.cache_path.empty()) {
    if (std::ifstream probe(opt_.cache_path); probe.good()) {
      probe.close();
      try {
        db = tuner::TunedDatabase::load_file(opt_.cache_path);
      } catch (const Error& e) {
        // A serving process must survive a torn/corrupt cache: start cold
        // and overwrite it below.
        info.cache_ignored = true;
        info.cache_error = e.what();
        db = tuner::TunedDatabase();
      }
    }
  }
  struct Missing {
    simcl::DeviceId id;
    Precision prec;
  };
  std::vector<Missing> missing;
  for (simcl::DeviceId id : devices_) {
    for (Precision prec : {Precision::DP, Precision::SP}) {
      if (db.find(id, prec))
        ++info.loaded;
      else
        missing.push_back({id, prec});
    }
  }
  // Profile the gaps in parallel; TunedDatabase::put is thread-safe and
  // each (device, precision) key is written by exactly one chunk.
  pool_.parallel_for(
      static_cast<std::int64_t>(missing.size()),
      [&](std::int64_t begin, std::int64_t end, int) {
        for (std::int64_t i = begin; i < end; ++i) {
          const Missing& m = missing[static_cast<std::size_t>(i)];
          db.put(m.id, m.prec,
                 tuner::profile_kernel(
                     m.id, codegen::table2_entry(m.id, m.prec).params,
                     opt_.warmup_sweep_n));
        }
      });
  info.profiled = missing.size();
  trace::counter_add("serve.warmup_profiled", info.profiled);
  if (!opt_.cache_path.empty() && (info.profiled > 0 || info.cache_ignored))
    db.save_file(opt_.cache_path);
  engines_.clear();
  engines_.reserve(devices_.size());
  for (simcl::DeviceId id : devices_) {
    tuner::TunedDatabase local;
    for (Precision prec : {Precision::DP, Precision::SP})
      local.put(id, prec, *db.find(id, prec));
    engines_.push_back(
        std::make_unique<blas::GemmEngine>(id, std::move(local)));
  }
  warmed_ = true;
  return info;
}

void GemmServer::ensure_estimates(
    const std::vector<GemmRequest>& requests) {
  std::vector<ShapeClass> shapes;
  for (const GemmRequest& r : requests) {
    const ShapeClass s = ShapeClass::of(r);
    if (!estimates_.contains(s)) shapes.push_back(s);
  }
  std::sort(shapes.begin(), shapes.end());
  shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
  if (shapes.empty()) return;
  trace::Span span("serve.precompute");
  if (strategy_) {
    // Guided warmup: tune a kernel per (device, shape class) with the
    // configured strategy. The outer loop stays serial — each strategy
    // parallelizes its own search internally, and every strategy is
    // bit-reproducible at any thread count, so the table is too.
    for (const ShapeClass& s : shapes) {
      std::vector<PathEstimate>& per_dev = estimates_[s];
      per_dev.resize(devices_.size());
      for (std::size_t d = 0; d < devices_.size(); ++d)
        per_dev[d] = class_estimate(d, s);
    }
    return;
  }
  const std::int64_t nd = static_cast<std::int64_t>(devices_.size());
  const std::int64_t ns = static_cast<std::int64_t>(shapes.size());
  // Device-major flat index; GemmEngine::estimate is safe to call
  // concurrently once warmup populated every (device, precision) entry,
  // and PerfModel is pure, so this table is thread-count invariant.
  const auto flat = parallel_map<PathEstimate>(
      pool_, nd * ns, [&](std::int64_t i) {
        const auto d = static_cast<std::size_t>(i / ns);
        const ShapeClass& s = shapes[static_cast<std::size_t>(i % ns)];
        const auto prof =
            engines_[d]->estimate(s.type, s.prec, s.Mc, s.Nc, s.Kc);
        return PathEstimate{prof.total_seconds, prof.used_direct,
                            prof.gflops};
      });
  for (std::int64_t si = 0; si < ns; ++si) {
    std::vector<PathEstimate>& per_dev =
        estimates_[shapes[static_cast<std::size_t>(si)]];
    per_dev.resize(static_cast<std::size_t>(nd));
    for (std::int64_t d = 0; d < nd; ++d)
      per_dev[static_cast<std::size_t>(d)] =
          flat[static_cast<std::size_t>(d * ns + si)];
  }
}

const std::vector<PathEstimate>& GemmServer::estimates_for(
    const ShapeClass& s) const {
  const auto it = estimates_.find(s);
  check(it != estimates_.end(),
        "GemmServer::estimates_for: no estimates for " + to_string(s) +
            " (call ensure_estimates first)");
  return it->second;
}

PathEstimate GemmServer::class_estimate(std::size_t d, const ShapeClass& s) {
  const simcl::DeviceId id = devices_[d];
  const tuner::TunedKernel& t = class_db_.get_or_tune(id, s.prec, s, [&] {
    trace::Span tune_span("serve.class_tune");
    tuner::SearchOptions sopt;
    sopt.enumeration.max_candidates = opt_.tune_candidates;
    sopt.threads = opt_.threads;
    sopt.shape = s;
    return tuner::strategy::run_strategy(*search_engines_[d], s.prec, sopt,
                                         *strategy_);
  });
  // Price the class kernel with the same cost model the classic path uses
  // (pack path vs guarded direct), so estimates stay comparable across
  // modes; the strategy can only improve on the Table II seed it includes.
  const tuner::ShapeCost c =
      tuner::shape_cost(engines_[d]->model(), t.params, s.Mc, s.Nc, s.Kc);
  check(c.ok, "GemmServer::class_estimate: tuned kernel unusable for " +
                  to_string(s));
  return PathEstimate{c.seconds, c.used_direct, c.gflops};
}

std::vector<PathEstimate> GemmServer::fresh_estimates(
    std::size_t d, Precision prec, const std::vector<ShapeClass>& shapes) {
  check(d < devices_.size(), "GemmServer::fresh_estimates: bad device");
  std::vector<PathEstimate> col(shapes.size());
  if (strategy_) {
    for (std::size_t i = 0; i < shapes.size(); ++i)
      col[i] = class_estimate(d, shapes[i]);
    return col;
  }
  // Classic refresh: re-profile the Table II kernel into a fresh engine
  // and re-derive the rows, exactly as warmup would.
  const simcl::DeviceId id = devices_[d];
  tuner::TunedDatabase fresh;
  fresh.put(id, prec,
            tuner::profile_kernel(id, codegen::table2_entry(id, prec).params,
                                  opt_.warmup_sweep_n));
  blas::GemmEngine engine(id, std::move(fresh));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const ShapeClass& s = shapes[i];
    const auto prof = engine.estimate(s.type, s.prec, s.Mc, s.Nc, s.Kc);
    col[i] = PathEstimate{prof.total_seconds, prof.used_direct, prof.gflops};
  }
  return col;
}

ServeOutcome GemmServer::run(const std::vector<GemmRequest>& requests,
                             int max_batch, int queue_capacity) {
  return simulate(requests, max_batch, queue_capacity, 1, nullptr, {});
}

ServeOutcome GemmServer::simulate(const std::vector<GemmRequest>& requests,
                                  int max_batch, int queue_capacity,
                                  int shards, std::vector<char>* infeasible,
                                  const DispatchHook& on_dispatch) {
  check(warmed_, "GemmServer::run: call warmup() first");
  ensure_estimates(requests);
  trace::Span span("serve.simulate");

  const std::size_t n = requests.size();
  std::map<std::int64_t, std::size_t> slot_of;
  for (std::size_t i = 0; i < n; ++i) {
    check(slot_of.emplace(requests[i].id, i).second,
          "GemmServer::run: duplicate request id " +
              std::to_string(requests[i].id));
    check(i == 0 || requests[i - 1].arrival_seconds <=
                        requests[i].arrival_seconds,
          "GemmServer::run: requests must be sorted by arrival time");
  }
  if (infeasible != nullptr) infeasible->assign(n, 0);

  ServeOutcome out;
  out.responses.resize(n);
  out.device_stats.resize(devices_.size());

  struct Running {
    PendingBatch batch;
    double start = 0;
    double finish = 0;
    bool used_direct = false;
    std::int64_t batch_id = 0;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::optional<Running>> running(devices_.size());
  ShardedQueue queue(shards, max_batch, queue_capacity);
  // Earliest completion from a cold start: the best device taking the
  // request alone, right now. The infeasibility shed compares it with
  // the deadline.
  const auto best_case_seconds = [&](const GemmRequest& r) {
    double best = kInf;
    for (const PathEstimate& e : estimates_.at(ShapeClass::of(r)))
      best = std::min(best, opt_.dispatch_overhead_seconds + e.seconds);
    return best;
  };
  std::size_t next_arrival = 0;
  double last_finish = 0;

  const auto complete = [&](int d) {
    const Running& run = *running[static_cast<std::size_t>(d)];
    for (const GemmRequest& r : run.batch.requests) {
      GemmResponse& resp = out.responses[slot_of.at(r.id)];
      resp.request_id = r.id;
      resp.status = RequestStatus::Completed;
      resp.finish_seconds = run.finish;
      resp.latency_seconds = run.finish - r.arrival_seconds;
      resp.wait_seconds = run.start - r.arrival_seconds;
      resp.device_index = d;
      resp.batch_id = run.batch_id;
      resp.batch_size = static_cast<int>(run.batch.requests.size());
      resp.used_direct = run.used_direct;
      out.completed_flops += r.flops();
      trace::counter_add(
          "serve.wait_us",
          static_cast<std::uint64_t>(resp.wait_seconds * 1e6));
    }
    DeviceStats& ds = out.device_stats[static_cast<std::size_t>(d)];
    ds.batches += 1;
    ds.requests += static_cast<std::int64_t>(run.batch.requests.size());
    ds.busy_seconds += run.finish - run.start;
    last_finish = std::max(last_finish, run.finish);
    running[static_cast<std::size_t>(d)].reset();
  };

  const auto reject = [&](const GemmRequest& r, RequestStatus status,
                          double when, const char* counter) {
    GemmResponse& resp = out.responses[slot_of.at(r.id)];
    resp.request_id = r.id;
    resp.status = status;
    resp.finish_seconds = when;
    resp.wait_seconds = when - r.arrival_seconds;
    trace::counter_add(counter, 1);
  };
  const auto expire = [&](std::vector<GemmRequest>& expired, double when) {
    for (const GemmRequest& r : expired)
      reject(r, RequestStatus::RejectedDeadline, when,
             "serve.rejects_deadline");
    expired.clear();
  };

  for (;;) {
    const double t_arrival =
        next_arrival < n ? requests[next_arrival].arrival_seconds : kInf;
    double t_device = kInf;
    for (const auto& r : running)
      if (r) t_device = std::min(t_device, r->finish);
    const double clock = std::min(t_arrival, t_device);
    if (!std::isfinite(clock)) break;  // drained: no arrivals, all idle

    // 1. Completions at `clock`, in device order.
    for (std::size_t d = 0; d < running.size(); ++d)
      if (running[d] && running[d]->finish <= clock)
        complete(static_cast<int>(d));

    // 2. Admissions at `clock` (bounded queue -> backpressure).
    while (next_arrival < n &&
           requests[next_arrival].arrival_seconds <= clock) {
      const GemmRequest& r = requests[next_arrival++];
      trace::counter_add("serve.requests", 1);
      if (infeasible != nullptr && r.deadline_seconds > 0 &&
          r.arrival_seconds + best_case_seconds(r) > r.deadline_seconds) {
        (*infeasible)[slot_of.at(r.id)] = 1;
        reject(r, RequestStatus::RejectedDeadline, r.arrival_seconds,
               "serve.shed_infeasible");
      } else if (!queue.admit(r)) {
        reject(r, RequestStatus::RejectedQueueFull, r.arrival_seconds,
               "serve.rejects_queue_full");
      }
    }

    // 3. Dispatch by earliest completion time. For each pending group (in
    //    priority order) the preferred device minimises
    //    free_time + overhead + estimate over ALL devices — idle or busy.
    //    A group whose preferred device is busy waits for it: handing its
    //    work to a slower idle device just because it is idle is how a
    //    CPU ends up serialising 2048^3 GEMMs while the fast GPU sits at
    //    half load (the classic list-scheduling anomaly). Cheap shapes
    //    always find an idle device with a competitive completion time,
    //    so devices rarely idle while compatible work queues.
    for (;;) {
      std::size_t idle = 0;
      for (const auto& r : running) idle += r ? 0 : 1;
      if (idle == 0) break;
      std::vector<GemmRequest> expired;
      const auto views = queue.group_views(clock, expired);
      expire(expired, clock);
      bool dispatched = false;
      for (const auto& view : views) {
        const std::vector<PathEstimate>& per_dev = estimates_.at(view.shape);
        int dev = -1;
        double best_ect = kInf;
        for (std::size_t d = 0; d < running.size(); ++d) {
          const double free_at = running[d] ? running[d]->finish : clock;
          const double ect = free_at + opt_.dispatch_overhead_seconds +
                             per_dev[d].seconds;
          if (ect < best_ect) {
            best_ect = ect;
            dev = static_cast<int>(d);
          }
        }
        if (running[static_cast<std::size_t>(dev)])
          continue;  // preferred device busy: this group waits for it
        const PathEstimate& est = per_dev[static_cast<std::size_t>(dev)];
        // Batch size: bound the batch's serial device time, and share a
        // large group across the devices idle this round instead of
        // serialising it on one while the others sit empty.
        std::size_t limit = (view.size + idle - 1) / idle;
        if (opt_.max_batch_seconds > 0 && est.seconds > 0) {
          const double cap =
              std::floor(opt_.max_batch_seconds / est.seconds);
          if (cap < static_cast<double>(limit))
            limit = static_cast<std::size_t>(std::max(cap, 1.0));
        }
        auto batch = queue.pop_from(view.shape, clock, limit, expired);
        expire(expired, clock);
        if (!batch) continue;
        trace::Span batch_span("serve.batch");
        Running run;
        run.batch = std::move(*batch);
        run.start = clock;
        run.finish = clock + opt_.dispatch_overhead_seconds +
                     est.seconds *
                         static_cast<double>(run.batch.requests.size());
        run.used_direct = est.used_direct;
        run.batch_id = static_cast<std::int64_t>(out.batches.size());
        out.batches.push_back({run.batch_id, dev, run.batch.shape,
                               static_cast<int>(run.batch.requests.size()),
                               run.start, run.finish, run.used_direct});
        trace::counter_add("serve.batches", 1);
        trace::counter_add("serve.batched_requests",
                           run.batch.requests.size());
        if (on_dispatch)
          on_dispatch(static_cast<std::size_t>(dev), run.batch.requests);
        running[static_cast<std::size_t>(dev)] = std::move(run);
        dispatched = true;
        break;  // device set changed: recompute views and idle count
      }
      if (!dispatched) break;
    }
  }
  check(queue.empty(), "GemmServer::run: scheduler drained incompletely");

  out.peak_queue_depth = queue.peak_depth();
  const double first_arrival = n > 0 ? requests.front().arrival_seconds : 0;
  out.makespan_seconds = last_finish > first_arrival
                             ? last_finish - first_arrival
                             : 0;
  return out;
}

void outcome_scalars(Json& scalars, const std::string& prefix,
                     const std::vector<GemmRequest>& requests,
                     const ServeOutcome& o) {
  std::int64_t completed = 0, queue_full = 0, deadline = 0;
  std::vector<double> latencies_ms;
  for (const GemmResponse& r : o.responses) {
    switch (r.status) {
      case RequestStatus::Completed:
        ++completed;
        latencies_ms.push_back(r.latency_seconds * 1e3);
        break;
      case RequestStatus::RejectedQueueFull: ++queue_full; break;
      case RequestStatus::RejectedDeadline: ++deadline; break;
    }
  }
  std::int64_t direct_batches = 0;
  std::int64_t max_batch_size = 0;
  for (const BatchRecord& b : o.batches) {
    if (b.used_direct) ++direct_batches;
    max_batch_size = std::max(max_batch_size,
                              static_cast<std::int64_t>(b.size));
  }
  scalars[prefix + "requests.total"] =
      static_cast<std::int64_t>(requests.size());
  scalars[prefix + "requests.completed"] = completed;
  scalars[prefix + "requests.rejected_queue_full"] = queue_full;
  scalars[prefix + "requests.rejected_deadline"] = deadline;
  scalars[prefix + "batches.count"] =
      static_cast<std::int64_t>(o.batches.size());
  scalars[prefix + "batches.avg_size"] = finite_or(
      static_cast<double>(completed) /
          static_cast<double>(o.batches.size()),
      0.0);
  scalars[prefix + "batches.max_size"] = max_batch_size;
  scalars[prefix + "batches.direct_fraction"] = finite_or(
      static_cast<double>(direct_batches) /
          static_cast<double>(o.batches.size()),
      0.0);
  scalars[prefix + "latency_ms.mean"] = mean(latencies_ms);
  scalars[prefix + "latency_ms.p50"] = percentile(latencies_ms, 0.50);
  scalars[prefix + "latency_ms.p95"] = percentile(latencies_ms, 0.95);
  scalars[prefix + "latency_ms.p99"] = percentile(latencies_ms, 0.99);
  scalars[prefix + "latency_ms.p999"] = percentile(latencies_ms, 0.999);
  scalars[prefix + "latency_ms.max"] =
      latencies_ms.empty()
          ? 0.0
          : *std::max_element(latencies_ms.begin(), latencies_ms.end());
  scalars[prefix + "queue.peak_depth"] =
      static_cast<std::int64_t>(o.peak_queue_depth);
  scalars[prefix + "sim.makespan_seconds"] = o.makespan_seconds;
  scalars[prefix + "throughput.gflops"] =
      safe_gflops(o.completed_flops, o.makespan_seconds);
}

Json build_report(const WorkloadSpec& spec,
                  const std::vector<GemmRequest>& requests,
                  const ServeOutcome& batched, const ServeOutcome& unbatched,
                  const ServeOptions& opt) {
  Json doc = Json::object();
  doc["schema"] = kServeReportSchema;
  doc["meta"] = run_meta_json(
      ir::to_string(ir::resolve_backend(ir::Backend::Auto)),
      configured_threads());
  // The workload block mirrors the trace's spec object, so a report from
  // `serve` and one from `replay` of the saved trace are byte-identical.
  Json wl = Json::object();
  wl["seed"] = static_cast<std::int64_t>(spec.seed);
  wl["requests"] = spec.requests;
  wl["rate_rps"] = spec.rate_rps;
  wl["arrival"] = to_string(spec.arrival);
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
  options["tune_strategy"] =
      opt.tune_strategy.empty() ? "table2" : opt.tune_strategy;
  doc["options"] = std::move(options);

  Json scalars = Json::object();
  outcome_scalars(scalars, "", requests, batched);
  outcome_scalars(scalars, "baseline.", requests, unbatched);
  const double batched_tp = scalars.at("throughput.gflops").as_number();
  const double base_tp =
      scalars.at("baseline.throughput.gflops").as_number();
  scalars["speedup.throughput"] = finite_or(batched_tp / base_tp, 1.0);
  scalars["speedup.makespan"] = finite_or(
      unbatched.makespan_seconds / batched.makespan_seconds, 1.0);
  // Under overload the two runs reject different requests, which makes a
  // raw GFlop/s comparison misleading; completed-count speedup shows how
  // much more of the offered work batching actually served.
  scalars["speedup.completed"] = finite_or(
      scalars.at("requests.completed").as_number() /
          scalars.at("baseline.requests.completed").as_number(),
      1.0);
  doc["scalars"] = std::move(scalars);

  Json per_device = Json::object();
  const auto devices = spec.resolved_devices();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const DeviceStats ds = d < batched.device_stats.size()
                               ? batched.device_stats[d]
                               : DeviceStats{};
    Json j = Json::object();
    j["batches"] = ds.batches;
    j["requests"] = ds.requests;
    j["busy_seconds"] = ds.busy_seconds;
    j["utilization"] = finite_or(
        ds.busy_seconds / batched.makespan_seconds, 0.0);
    per_device[simcl::to_string(devices[d])] = std::move(j);
  }
  doc["per_device"] = std::move(per_device);
  return doc;
}

}  // namespace gemmtune::serve
