// The GEMM serving engine: warm cache, shape-aware scheduling across
// several simulated devices, and the "gemmtune-serve-v1" report.
//
// Lifecycle:
//  1. warmup() — loads the persistent tuned-kernel cache (if configured),
//     profiles whatever device x precision entries are missing on the
//     worker pool, saves the cache back atomically, and builds one
//     GemmEngine per device. Cold-start tuning therefore never blocks a
//     request: no traffic is admitted before warmup returns.
//  2. run() — a deterministic discrete-event simulation of the service.
//     Per-batch costs come from a shape-class estimate table that is
//     precomputed in parallel (PerfModel is a pure function, so thread
//     count cannot change any value in it); the event loop itself is
//     serial, so the same workload yields the bit-identical outcome at
//     any --threads / GEMMTUNE_THREADS setting. The loop is simulate();
//     the concurrent core's virtual mode (src/serve/core) runs the same
//     loop with more queue shards, admission-time shedding and a hand-off
//     of each batch to executor threads.
//
// Batch cost model: one dispatch pays a fixed enqueue overhead (the
// OpenCL-era kernel-launch cost) plus the per-request time of the batch's
// shape class on the chosen device — the PerfModel-backed choice between
// the pack path and the paper Section V copy-free direct path. Coalescing
// B same-class requests into one dispatch amortizes the overhead B-fold,
// which is exactly where the batched service beats the one-request-at-a-
// time baseline.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "serve/workload.hpp"
#include "tuner/strategy/strategy.hpp"

namespace gemmtune::serve {

/// Service configuration beyond what the workload spec carries.
struct ServeOptions {
  /// Per-dispatch enqueue overhead (seconds of simulated device time).
  double dispatch_overhead_seconds = 25e-6;
  /// Cap on one batch's serial device time: a batch of B requests holds
  /// its device for B * estimate seconds, so B is limited to
  /// max_batch_seconds / estimate. Cheap shapes (where the dispatch
  /// overhead actually matters) batch up to max_batch; an expensive GEMM
  /// dispatches alone, keeping load balancing as fine-grained as the
  /// unbatched baseline. <= 0 disables the cap.
  double max_batch_seconds = 2e-3;
  /// Stage-2 sweep ceiling for warmup profiling of missing cache entries
  /// (smaller than the tuner's 8192: serving needs the kernel parameters,
  /// not the full paper curve).
  std::int64_t warmup_sweep_n = 2048;
  /// Worker threads for warmup and estimate precompute. 0 follows the
  /// process-wide configuration (--threads / GEMMTUNE_THREADS / hardware),
  /// so the service honors the same concurrency controls as the tuner.
  int threads = 0;
  /// Persistent warm-cache path (TunedDatabase JSON). Empty: in-memory
  /// only. A corrupt cache file is ignored (and rewritten), not fatal.
  std::string cache_path;
  /// Input-aware warmup: a --strategy spec (e.g. "model_topk,budget=64").
  /// When set, the estimate table is built from kernels tuned per observed
  /// shape class by the budgeted strategy instead of the size-agnostic
  /// Table II warmup kernel. Empty keeps the classic behavior.
  std::string tune_strategy;
  /// Enumeration budget for each per-class strategy tune (the candidate
  /// space the strategy searches within). Only used with tune_strategy.
  int tune_candidates = 1500;
};

/// What warmup did (surfaced by the CLI).
struct WarmupInfo {
  std::size_t loaded = 0;    ///< entries taken from the cache file
  std::size_t profiled = 0;  ///< entries profiled this run
  bool cache_ignored = false;  ///< cache file existed but was corrupt
  std::string cache_error;     ///< why it was ignored
};

/// One dispatched batch, in simulated time.
struct BatchRecord {
  std::int64_t id = 0;
  int device_index = 0;  ///< index into the server's device list
  ShapeClass shape;
  int size = 0;
  double start_seconds = 0;
  double finish_seconds = 0;
  bool used_direct = false;
};

/// Per-device aggregates over one run.
struct DeviceStats {
  std::int64_t batches = 0;
  std::int64_t requests = 0;
  double busy_seconds = 0;
};

/// Everything one simulated run produced.
struct ServeOutcome {
  std::vector<GemmResponse> responses;  ///< parallel to the request vector
  std::vector<BatchRecord> batches;
  std::vector<DeviceStats> device_stats;  ///< parallel to the device list
  std::size_t peak_queue_depth = 0;
  double makespan_seconds = 0;  ///< first arrival -> last completion
  double completed_flops = 0;
};

/// Modeled cost of serving one request of a shape class on one device:
/// the PerfModel-backed choice between the pack path and the copy-free
/// direct path. Shared between the event loop and the concurrent core's
/// realtime mode (src/serve/core).
struct PathEstimate {
  double seconds = 0;       ///< per-request service time
  bool used_direct = false;
  double gflops = 0;
};

/// Receives each batch the event loop places on a device: the device
/// index and the requests in dispatch order.
using DispatchHook =
    std::function<void(std::size_t, const std::vector<GemmRequest>&)>;

class GemmServer {
 public:
  GemmServer(std::vector<simcl::DeviceId> devices, ServeOptions opt);

  const std::vector<simcl::DeviceId>& devices() const { return devices_; }
  const ServeOptions& options() const { return opt_; }
  bool warmed() const { return warmed_; }

  /// Prepares tuned kernels for every device x {DGEMM, SGEMM} before any
  /// traffic is admitted. Must be called once before run().
  WarmupInfo warmup();

  /// Serves `requests` (sorted by arrival; ids unique) with batches of up
  /// to `max_batch` and a bounded queue of `queue_capacity`. Deterministic
  /// for fixed inputs at any thread count. max_batch == 1 is the
  /// unbatched one-request-at-a-time baseline.
  ServeOutcome run(const std::vector<GemmRequest>& requests, int max_batch,
                   int queue_capacity);

  /// The service's discrete-event loop, behind run() (one shard, no
  /// hooks) and AsyncServer's virtual mode. `shards` splits the admission
  /// queue into lock domains; the outcome is invariant under it. With
  /// `infeasible` non-null, a request whose deadline the best device
  /// would miss even starting at its arrival is rejected at admission and
  /// flagged there (parallel to `requests`). `on_dispatch`, when set, sees
  /// every device batch as it is placed.
  ServeOutcome simulate(const std::vector<GemmRequest>& requests,
                        int max_batch, int queue_capacity, int shards,
                        std::vector<char>* infeasible,
                        const DispatchHook& on_dispatch);

  /// Fills the estimate table for every shape class in `requests` on every
  /// device (parallel; pure, so thread-count invariant).
  void ensure_estimates(const std::vector<GemmRequest>& requests);

  /// The estimate row (index parallel to devices()) for one shape class;
  /// throws if ensure_estimates has not covered it.
  const std::vector<PathEstimate>& estimates_for(const ShapeClass& s) const;

  /// The whole estimate table (the async core snapshots it at start and
  /// lets its re-tuner refresh the snapshot without touching this one).
  const std::map<ShapeClass, std::vector<PathEstimate>>& estimates() const {
    return estimates_;
  }

  /// Warmed per-device engines (parallel to devices()); valid after
  /// warmup(). GemmEngine::gemm/estimate are safe to call concurrently.
  const std::vector<std::unique_ptr<blas::GemmEngine>>& engines() const {
    return engines_;
  }

  /// Recomputes one device's estimate column for `shapes` from scratch
  /// (the async core's re-tuner exercises this refresh path). Classic
  /// mode re-profiles the Table II kernel into a fresh engine; guided
  /// mode re-derives the rows from the per-class tuned kernels. Either
  /// way the simulator is deterministic, so the values match the table.
  std::vector<PathEstimate> fresh_estimates(
      std::size_t d, codegen::Precision prec,
      const std::vector<ShapeClass>& shapes);

  /// Distinct per-shape-class kernels tuned so far (guided mode only).
  std::size_t class_kernels() const { return class_db_.size(); }

 private:
  /// One device x shape-class estimate via the guided strategy: tunes a
  /// kernel for the class (memoized in class_db_) and prices it with
  /// shape_cost, the same cost model the classic path uses.
  PathEstimate class_estimate(std::size_t d, const ShapeClass& s);

  std::vector<simcl::DeviceId> devices_;
  ServeOptions opt_;
  /// Parsed opt_.tune_strategy (parsed eagerly so a bad spec fails at
  /// construction, not mid-warmup); empty = classic warmup.
  std::optional<tuner::strategy::StrategySpec> strategy_;
  ThreadPool pool_;
  std::vector<std::unique_ptr<blas::GemmEngine>> engines_;
  /// Per-shape-class tuned kernels (guided mode); get_or_tune dedupes
  /// concurrent tunes of the same class.
  tuner::TunedDatabase class_db_;
  /// One SearchEngine per device (guided mode, built lazily): its
  /// candidate-space memo makes the enumeration walk a once-per-device
  /// cost instead of once per shape class.
  std::vector<std::unique_ptr<tuner::SearchEngine>> search_engines_;
  /// shape class -> per-device estimate (index parallel to devices_).
  std::map<ShapeClass, std::vector<PathEstimate>> estimates_;
  bool warmed_ = false;
};

/// Flattens one outcome into a report's scalar map under `prefix`
/// (requests.*, batches.*, latency_ms.*, queue.*, sim.*, throughput.*).
/// Shared by the serial and the concurrent (src/serve/core) reports.
void outcome_scalars(Json& scalars, const std::string& prefix,
                     const std::vector<GemmRequest>& requests,
                     const ServeOutcome& o);

/// Builds the "gemmtune-serve-v1" report from a batched run and its
/// unbatched baseline on the same workload. The document is a pure
/// function of its inputs (no wall clock), so identical runs produce
/// byte-identical reports; `scalars` follows the bench-report convention
/// consumed by tools/compare_bench.py.
Json build_report(const WorkloadSpec& spec,
                  const std::vector<GemmRequest>& requests,
                  const ServeOutcome& batched, const ServeOutcome& unbatched,
                  const ServeOptions& opt);

}  // namespace gemmtune::serve
