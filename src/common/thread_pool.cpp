#include "common/thread_pool.hpp"

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <memory>

#include "common/error.hpp"

namespace gemmtune {

namespace {
std::atomic<int> g_thread_override{0};
}  // namespace

int parse_thread_count(const std::string& origin, const std::string& value) {
  const auto bad = [&]() -> int {
    fail(origin + ": invalid thread count '" + value + "' (use an integer " +
         std::to_string(kMinThreads) + ".." + std::to_string(kMaxThreads) +
         ")");
  };
  if (value.empty()) bad();
  long parsed = 0;
  for (const char c : value) {
    if (!std::isdigit(static_cast<unsigned char>(c))) bad();
    parsed = parsed * 10 + (c - '0');
    if (parsed > kMaxThreads) bad();
  }
  if (parsed < kMinThreads) bad();
  return static_cast<int>(parsed);
}

void set_thread_override(int n) { g_thread_override.store(n > 0 ? n : 0); }

int configured_threads() {
  const int o = g_thread_override.load();
  if (o > 0) return o;
  if (const char* env = std::getenv("GEMMTUNE_THREADS")) {
    return parse_thread_count("GEMMTUNE_THREADS", env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int threads) {
  int n = threads > 0 ? threads : configured_threads();
  if (n < 1) n = 1;
  errors_.resize(static_cast<std::size_t>(n));
  workers_.reserve(static_cast<std::size_t>(n - 1));
  for (int w = 1; w < n; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

std::int64_t ThreadPool::chunk_begin(std::int64_t n, int chunks, int i) {
  return n * i / chunks;
}

void ThreadPool::run_chunk(const Job& job, int worker) {
  const int chunks = size();
  const std::int64_t begin = chunk_begin(job.n, chunks, worker);
  const std::int64_t end = chunk_begin(job.n, chunks, worker + 1);
  if (begin >= end) return;
  try {
    (*job.fn)(begin, end, worker);
  } catch (...) {
    errors_[static_cast<std::size_t>(worker)] = std::current_exception();
  }
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_start_.wait(lock, [&] { return stop_ || job_.epoch != seen; });
    if (stop_) return;
    seen = job_.epoch;
    const Job job = job_;
    lock.unlock();
    run_chunk(job, worker);
    lock.lock();
    if (--pending_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::parallel_for(
    std::int64_t n,
    const std::function<void(std::int64_t, std::int64_t, int)>& fn) {
  if (n <= 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  if (busy_ || workers_.empty()) {
    // Reentrant / concurrent dispatch on the same pool, or a 1-thread
    // pool: run the whole range inline.
    lock.unlock();
    fn(0, n, 0);
    return;
  }
  busy_ = true;
  job_.fn = &fn;
  job_.n = n;
  ++job_.epoch;
  pending_ = static_cast<int>(workers_.size());
  for (auto& e : errors_) e = nullptr;
  cv_start_.notify_all();
  lock.unlock();
  run_chunk(job_, 0);  // the caller is worker 0
  lock.lock();
  cv_done_.wait(lock, [&] { return pending_ == 0; });
  busy_ = false;
  std::exception_ptr err;
  for (const auto& e : errors_) {
    if (e) {
      err = e;
      break;
    }
  }
  lock.unlock();
  if (err) std::rethrow_exception(err);
}

ThreadPool& ThreadPool::global() {
  static std::mutex mu;
  // One pool per configured size, never destroyed: worker threads must not
  // be joined from static destructors (other statics they may touch could
  // already be gone), and handed-out references stay valid after a later
  // set_thread_override changes the configured count.
  static auto* pools = new std::map<int, std::unique_ptr<ThreadPool>>();
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = (*pools)[configured_threads()];
  if (!slot) slot = std::make_unique<ThreadPool>(configured_threads());
  return *slot;
}

ThreadPool& pool_for(int threads, std::optional<ThreadPool>* own) {
  if (threads <= 0 || threads == configured_threads())
    return ThreadPool::global();
  if (!*own) own->emplace(threads);
  return **own;
}

}  // namespace gemmtune
