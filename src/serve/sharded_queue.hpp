// Shape-aware admission queue: a bounded queue that groups pending
// requests by ShapeClass and forms dispatch batches. The serve event loop
// (GemmServer::simulate) drives it single-threaded; the concurrent core's
// realtime mode has an admission thread and several executors hammer it at
// once, so the groups are split across `shards` independently locked maps,
// hashed by ShapeClass — two threads working different shape classes
// almost never contend.
//
// Design points (all load-bearing for the serve report's determinism):
//  * Bounded queue: admit() refuses requests once `queue_capacity` are
//    pending — the service's backpressure signal. The caller turns a
//    refusal into a RejectedQueueFull response instead of queueing
//    unboundedly. The bound is GLOBAL, not per-shard: one atomic counter
//    carries the capacity check, so whether a request is shed is invariant
//    under the shard count. Sharding partitions the lock domain and the
//    storage, never the admission decision.
//  * Deterministic selection: group_views() orders groups by head
//    priority (descending), then earliest arrival, then lowest request id.
//    A request lives in exactly one group, so head ids are unique and the
//    order is total — independent of shard count and visitation order.
//    Within a group requests leave in FIFO order. No wall-clock input
//    anywhere, so a replayed workload forms the identical batch sequence.
//  * Deadline enforcement at dispatch: requests whose deadline has passed
//    by the simulated clock are skimmed off into `expired` rather than
//    dispatched, charging the batch only for live work.
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "serve/request.hpp"

namespace gemmtune::serve {

/// A formed batch: same-shape-class requests served by one dispatch.
struct PendingBatch {
  ShapeClass shape;
  std::vector<GemmRequest> requests;
};

/// One pending group as seen by the dispatcher: its shape class, the
/// request at its head, and how many live requests queue behind it.
struct GroupView {
  ShapeClass shape;
  GemmRequest head;
  std::size_t size = 0;
};

class ShardedQueue {
 public:
  ShardedQueue(int shards, int max_batch, int queue_capacity);

  int shards() const { return static_cast<int>(shards_.size()); }

  /// Admits a request; false when the global depth bound is hit
  /// (backpressure). Thread-safe.
  bool admit(const GemmRequest& r);

  std::size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  std::size_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }
  bool empty() const { return depth() == 0; }

  /// Shard that owns a shape class (exposed for tests).
  std::size_t shard_of(const ShapeClass& s) const;

  /// Skims deadline-expired requests off every group head into `expired`
  /// and returns the remaining groups in dispatch-priority order (see the
  /// header comment). The caller walks this list and decides, per group,
  /// whether a device is worth dispatching to now or the group should
  /// wait for a better device to free up. Thread-safe; shards are visited
  /// one lock at a time, so the view is a consistent snapshot per shard,
  /// not across shards — exact global consistency only holds for a
  /// single-threaded caller (the event loop).
  std::vector<GroupView> group_views(double clock,
                                     std::vector<GemmRequest>& expired);

  /// Pops up to `max_take` (>= 1, capped at max_batch) requests of `shape`
  /// in FIFO order as one batch. Requests past their deadline at `clock`
  /// are appended to `expired` without counting against the batch.
  /// Returns nullopt when the group has no live request left. Thread-safe.
  std::optional<PendingBatch> pop_from(const ShapeClass& shape, double clock,
                                       std::size_t max_take,
                                       std::vector<GemmRequest>& expired);

 private:
  struct Shard {
    std::mutex mu;
    std::map<ShapeClass, std::deque<GemmRequest>> groups;
  };

  /// Pops expired requests off the front of `q`, releasing their depth.
  void skim_expired(std::deque<GemmRequest>& q, double clock,
                    std::vector<GemmRequest>& expired);
  void release(std::size_t n);  ///< returns n admissions to the bound

  std::vector<std::unique_ptr<Shard>> shards_;
  int max_batch_;
  std::size_t capacity_;
  std::atomic<std::size_t> depth_{0};
  std::atomic<std::size_t> peak_depth_{0};
};

}  // namespace gemmtune::serve
