// The concurrent serving core: sharded admission, per-device executor
// threads, background re-tuning, overload shedding, and tail-latency
// accounting (p50/p99/p999 per shape class).
//
// Two execution modes, selected by AsyncOptions::time_scale:
//
//  * Virtual mode (time_scale == 0, the default). Runs GemmServer's own
//    discrete-event loop (GemmServer::simulate) with this core's shard
//    count, the optional infeasibility shed, and a hook that hands each
//    placed batch to its device's executor thread. Without shedding, the
//    outcome is bit-identical to GemmServer::run at any shard or thread
//    count; the executor threads only carry the functional GEMM work
//    (real kernel execution + checksum of the C buffer) for requests small
//    enough to execute. This is the mode the differential harness
//    compares against GemmServer::run, and the mode CI gates, because its
//    whole outcome is deterministic.
//
//  * Realtime mode (time_scale > 0). Arrivals are paced in scaled
//    wall-clock time by an admission thread; per-device executor threads
//    pull work from the shards themselves (the fine-grained-locking hot
//    path TSAN watches), occupy their device for the modeled batch time
//    scaled by time_scale, and an optional re-tuner thread refreshes warm
//    TunedDatabase entries in the background. Latencies are measured in
//    virtual (modeled) seconds derived from the wall clock, so they are
//    comparable with — but not identical to — the virtual mode. With
//    serial_execution, one thread plays every device back to back: the
//    serial-core reference the overload stress bench beats.
//
// Shedding: queue-full rejection is always on (the bounded queue), and
// shed_infeasible additionally rejects at admission any request whose
// deadline cannot be met even by the best device starting immediately —
// refusing work that is already dead costs one estimate lookup and saves a
// queue slot.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "serve/server.hpp"

namespace gemmtune::serve {

/// Configuration of the concurrent core, on top of ServeOptions.
struct AsyncOptions {
  /// Admission shards (lock domains). Outcomes are shard-count invariant.
  int shards = 4;
  /// 0: virtual (deterministic discrete-event) mode. > 0: realtime mode,
  /// one modeled second occupies a device for `time_scale` wall seconds.
  double time_scale = 0;
  /// Realtime only: one executor thread plays all devices sequentially —
  /// the serial-core reference for the overload comparison.
  bool serial_execution = false;
  /// Also shed requests whose deadline is infeasible at admission.
  bool shed_infeasible = false;
  /// Realtime only: run the background re-tuner thread.
  bool retune = false;
  /// Wall milliseconds between re-tune rounds.
  double retune_interval_ms = 50;
  /// Execute the real generated kernel (and checksum C) for requests whose
  /// largest extent is <= this; 0 disables execution. Keep it modest
  /// (e.g. 64): interpreted GEMM costs real host milliseconds.
  index_t execute_max_n = 0;
  /// Seed mixed with each request id to generate its operand data, so the
  /// serial reference and the async core hash identical inputs.
  std::uint64_t result_seed = 42;
};

/// Per-shape-class accounting over one run. generated ==
/// completed + shed_queue_full + shed_infeasible + expired at drain.
struct ClassAccounting {
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_infeasible = 0;
  std::int64_t expired = 0;  ///< admitted but dead by dispatch time
  LatencyHistogram latency;  ///< completed requests only (virtual seconds)
};

/// Everything one concurrent run produced.
struct AsyncOutcome {
  ServeOutcome base;  ///< responses/batches/device stats, serial-compatible
  /// FNV-1a checksum of the result matrix per request slot (parallel to
  /// the request vector); 0 when the request was not executed.
  std::vector<std::uint64_t> result_hash;
  std::map<ShapeClass, ClassAccounting> classes;
  LatencyHistogram latency;  ///< all completed requests
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_infeasible = 0;
  std::int64_t expired = 0;
  std::int64_t executed = 0;  ///< requests run through the real kernel
  std::int64_t retunes = 0;   ///< re-tuner refresh rounds completed
  double wall_seconds = 0;    ///< realtime mode: host time of the run
};

/// Deterministic operand checksum: fills op-shaped A and B from
/// Rng(seed ^ splitmix(id)), runs the engine's real kernel with alpha=1,
/// beta=0, and returns the FNV-1a hash of the C buffer bytes.
std::uint64_t execute_checksum(blas::GemmEngine& engine, const GemmRequest& r,
                               std::uint64_t result_seed);

/// The concurrent core. Borrows a warmed GemmServer for its engines and
/// shape-class estimate table so both cores place batches from the same
/// numbers; the server must outlive the AsyncServer.
class AsyncServer {
 public:
  AsyncServer(GemmServer& server, AsyncOptions opt);

  const AsyncOptions& options() const { return opt_; }

  /// Serves `requests` (sorted by arrival; ids unique). Virtual mode is
  /// deterministic at any shard/thread count; realtime mode is not (wall
  /// clock), but its accounting invariant always holds.
  AsyncOutcome run(const std::vector<GemmRequest>& requests, int max_batch,
                   int queue_capacity);

 private:
  AsyncOutcome run_virtual(const std::vector<GemmRequest>& requests,
                           int max_batch, int queue_capacity);
  AsyncOutcome run_realtime(const std::vector<GemmRequest>& requests,
                            int max_batch, int queue_capacity);

  GemmServer& server_;
  AsyncOptions opt_;
};

/// Builds the extended "gemmtune-serve-v1" report for a concurrent run:
/// the serial-report layout plus core/shard metadata, shed counters, and
/// histogram percentiles (overall and per shape class) under "scalars".
/// `serial` is the serial reference outcome on the same workload (its
/// scalars land under the "serial." prefix, with completed/throughput
/// ratios alongside). Pure function of its inputs.
Json build_async_report(const WorkloadSpec& spec,
                        const std::vector<GemmRequest>& requests,
                        const AsyncOutcome& async, const ServeOutcome& serial,
                        const ServeOptions& opt, const AsyncOptions& aopt);

}  // namespace gemmtune::serve
