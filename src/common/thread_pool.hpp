// Shared parallel-execution layer: a reusable worker pool with
// parallel_for / parallel_map helpers.
//
// Design points (all load-bearing for the tuner and the interpreter):
//  * Static chunking: the index range [0, n) is split into one contiguous
//    chunk per worker, so a work item's chunk — and therefore the order in
//    which per-chunk results are concatenated — depends only on n and the
//    worker count, never on scheduling.
//  * Deterministic results: parallel_map writes result i to slot i, so the
//    output vector is identical to the serial map regardless of thread
//    count or interleaving.
//  * Exception propagation: the first (lowest-chunk) exception thrown by
//    any worker is rethrown on the calling thread after all workers finish.
//  * Caller participation: the calling thread executes chunk 0 itself, so
//    a pool of size 1 runs fully inline (no cross-thread hops) and a pool
//    of size N uses N-1 background workers.
//
// Thread-count configuration, in decreasing priority:
//  1. set_thread_override(n)  — the CLI's --threads flag,
//  2. GEMMTUNE_THREADS        — environment variable,
//  3. std::thread::hardware_concurrency().
//
// The pool itself is thread-compatible, not thread-safe: one parallel_for
// runs at a time per pool (nested or concurrent calls on the *same* pool
// fall back to inline execution rather than deadlocking). The process-wide
// global() pool serializes dispatches internally.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

namespace gemmtune {

/// Inclusive bounds every explicit thread-count setting must satisfy.
inline constexpr int kMinThreads = 1;
inline constexpr int kMaxThreads = 1024;

/// Parses an explicit thread-count setting (the --threads flag or the
/// GEMMTUNE_THREADS variable). Throws gemmtune::Error naming `origin` and
/// the allowed range [kMinThreads, kMaxThreads] when `value` is not a
/// plain decimal integer in range — garbage, zero, negatives, trailing
/// junk, and out-of-range counts are all rejected instead of silently
/// falling back to a default.
int parse_thread_count(const std::string& origin, const std::string& value);

/// Threads parallel sections will use: override > GEMMTUNE_THREADS > number
/// of hardware threads (always >= 1). Throws (via parse_thread_count) when
/// GEMMTUNE_THREADS is set to an invalid value.
int configured_threads();

/// Sets the process-wide thread-count override (the CLI --threads flag);
/// 0 clears the override. Takes effect for pools created afterwards and
/// for ThreadPool::global() dispatches.
void set_thread_override(int n);

/// Fixed-size worker pool executing statically chunked index ranges.
class ThreadPool {
 public:
  /// Creates a pool of `threads` workers; 0 means configured_threads().
  /// The calling thread counts as worker 0, so `threads - 1` background
  /// threads are spawned.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (including the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `fn(begin, end, worker)` over a static partition of [0, n) into
  /// size() contiguous chunks (worker w gets chunk w; empty chunks are
  /// skipped). Blocks until every chunk finished; rethrows the
  /// lowest-chunk exception if any chunk threw. Reentrant calls (from
  /// inside a chunk) and concurrent calls from other threads execute the
  /// whole range inline on the calling thread.
  void parallel_for(
      std::int64_t n,
      const std::function<void(std::int64_t, std::int64_t, int)>& fn);

  /// The process-wide pool, created on first use with configured_threads()
  /// workers. Recreated (under lock) when the configured count changes, so
  /// a later set_thread_override takes effect.
  static ThreadPool& global();

 private:
  struct Job {
    const std::function<void(std::int64_t, std::int64_t, int)>* fn = nullptr;
    std::int64_t n = 0;
    std::uint64_t epoch = 0;
  };

  void worker_loop(int worker);
  void run_chunk(const Job& job, int worker);
  static std::int64_t chunk_begin(std::int64_t n, int chunks, int i);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_start_, cv_done_;
  Job job_;
  int pending_ = 0;           // workers still running the current job
  bool stop_ = false;
  bool busy_ = false;         // a parallel_for is in flight
  std::vector<std::exception_ptr> errors_;  // slot per worker
};

/// The pool for a section asking for `threads` workers: global() when
/// `threads` is 0 or configured_threads() (so repeated calls start no
/// threads), else `*own`, created on first use with `threads` workers.
ThreadPool& pool_for(int threads, std::optional<ThreadPool>* own);

/// Maps `fn(i)` over [0, n) on `pool`, returning results in index order
/// (bit-identical to the serial loop for any thread count). `Fn` must be
/// safe to call concurrently from different threads for distinct `i`.
template <typename T, typename Fn>
std::vector<T> parallel_map(ThreadPool& pool, std::int64_t n, Fn&& fn) {
  std::vector<T> out(static_cast<std::size_t>(n));
  pool.parallel_for(n, [&](std::int64_t begin, std::int64_t end, int) {
    for (std::int64_t i = begin; i < end; ++i)
      out[static_cast<std::size_t>(i)] = fn(i);
  });
  return out;
}

}  // namespace gemmtune
