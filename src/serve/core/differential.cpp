#include "serve/core/differential.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"

namespace gemmtune::serve {

namespace {

std::string describe(const GemmRequest& r) {
  std::ostringstream ss;
  ss << "request " << r.id << " (" << to_string(ShapeClass::of(r)) << ")";
  return ss.str();
}

bool same_response(const GemmResponse& a, const GemmResponse& b) {
  return a.request_id == b.request_id && a.status == b.status &&
         a.finish_seconds == b.finish_seconds &&
         a.latency_seconds == b.latency_seconds &&
         a.wait_seconds == b.wait_seconds &&
         a.device_index == b.device_index && a.batch_id == b.batch_id &&
         a.batch_size == b.batch_size && a.used_direct == b.used_direct;
}

bool same_batch(const BatchRecord& a, const BatchRecord& b) {
  return a.id == b.id && a.device_index == b.device_index &&
         a.shape == b.shape && a.size == b.size &&
         a.start_seconds == b.start_seconds &&
         a.finish_seconds == b.finish_seconds &&
         a.used_direct == b.used_direct;
}

}  // namespace

DiffReport run_differential(GemmServer& server,
                            const std::vector<GemmRequest>& requests,
                            int max_batch, int queue_capacity,
                            const AsyncOptions& aopt,
                            ServeOutcome* serial_out,
                            AsyncOutcome* async_out) {
  DiffReport rep;
  const auto fail_with = [&](const std::string& why) {
    rep.ok = false;
    if (rep.detail.empty()) rep.detail = why;
  };

  ServeOutcome serial = server.run(requests, max_batch, queue_capacity);
  AsyncServer async_server(server, aopt);
  AsyncOutcome async =
      async_server.run(requests, max_batch, queue_capacity);
  rep.ok = true;

  // 1. Accounting invariant, globally and per class (every mode).
  std::int64_t acct_total = 0;
  for (const auto& [shape, c] : async.classes) {
    const std::int64_t sum = c.completed + c.shed_queue_full +
                             c.shed_infeasible + c.expired;
    if (sum != c.generated)
      fail_with("class " + to_string(shape) +
                ": completed+shed+expired != generated (" +
                std::to_string(sum) + " vs " +
                std::to_string(c.generated) + ")");
    acct_total += c.generated;
  }
  if (acct_total != static_cast<std::int64_t>(requests.size()))
    fail_with("per-class generated counts do not cover the workload");

  for (const GemmResponse& r : serial.responses)
    rep.serial_completed += r.status == RequestStatus::Completed ? 1 : 0;
  for (const GemmResponse& r : async.base.responses)
    rep.async_completed += r.status == RequestStatus::Completed ? 1 : 0;
  rep.completed_ratio =
      rep.serial_completed > 0
          ? static_cast<double>(rep.async_completed) /
                static_cast<double>(rep.serial_completed)
          : 1.0;

  // 2. Exact lockstep comparison — only meaningful when the async core is
  // configured to replicate the serial policy (virtual mode, no extra
  // shedding).
  const bool comparable = aopt.time_scale == 0 && !aopt.shed_infeasible;
  if (comparable) {
    if (async.base.responses.size() != serial.responses.size())
      fail_with("response vector sizes differ");
    for (std::size_t i = 0;
         rep.ok && i < serial.responses.size(); ++i) {
      if (!same_response(serial.responses[i], async.base.responses[i]))
        fail_with(describe(requests[i]) + ": responses diverge (serial " +
                  to_string(serial.responses[i].status) + ", async " +
                  to_string(async.base.responses[i].status) + ")");
    }
    if (async.base.batches.size() != serial.batches.size())
      fail_with("batch counts differ: serial " +
                std::to_string(serial.batches.size()) + ", async " +
                std::to_string(async.base.batches.size()));
    for (std::size_t i = 0; rep.ok && i < serial.batches.size(); ++i)
      if (!same_batch(serial.batches[i], async.base.batches[i]))
        fail_with("batch " + std::to_string(serial.batches[i].id) +
                  " diverges");
    if (async.base.peak_queue_depth != serial.peak_queue_depth)
      fail_with("peak queue depths differ");
    if (async.base.makespan_seconds != serial.makespan_seconds)
      fail_with("makespans differ");

    // 3. GEMM results: the async executors' checksums must equal the same
    // request run on the same device by this (serial) thread.
    if (aopt.execute_max_n > 0) {
      for (std::size_t i = 0; rep.ok && i < requests.size(); ++i) {
        const GemmRequest& r = requests[i];
        const GemmResponse& resp = serial.responses[i];
        if (resp.status != RequestStatus::Completed ||
            std::max({r.M, r.N, r.K}) > aopt.execute_max_n)
          continue;
        const std::uint64_t ref = execute_checksum(
            *server.engines()[static_cast<std::size_t>(resp.device_index)],
            r, aopt.result_seed);
        if (async.result_hash[i] != ref)
          fail_with(describe(r) + ": GEMM checksum mismatch");
        ++rep.compared_checksums;
      }
    }
    if (rep.ok && rep.async_completed != rep.serial_completed)
      fail_with("completed counts differ in lockstep mode");
  }

  if (serial_out) *serial_out = std::move(serial);
  if (async_out) *async_out = std::move(async);
  return rep;
}

}  // namespace gemmtune::serve
