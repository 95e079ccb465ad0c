#include "support/parallel.hpp"

#include <cstdlib>
#include <memory>
#include <string>

#include "support/error.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span.hpp"

namespace mfbc::support {

namespace {

thread_local bool tl_in_parallel_region = false;

/// RAII toggle for the in-region flag (exception safe). Saves and restores
/// the previous value: an inline nested region ending must not clear the
/// flag while the enclosing region is still running on this thread.
struct RegionGuard {
  bool prev;
  RegionGuard() : prev(tl_in_parallel_region) { tl_in_parallel_region = true; }
  ~RegionGuard() { tl_in_parallel_region = prev; }
};

int default_threads() {
  if (const char* env = std::getenv("MFBC_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    MFBC_CHECK(end != env && *end == '\0' && v >= 1 && v <= 512,
               "MFBC_THREADS must be an integer in [1, 512]");
    return static_cast<int>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  MFBC_CHECK(threads >= 1 && threads <= 512,
             "thread pool size must be in [1, 512]");
  errors_.resize(static_cast<std::size_t>(threads));
  util_.resize(static_cast<std::size_t>(threads));
  scratch_busy_ns_.resize(static_cast<std::size_t>(threads), -1.0);
  scratch_finish_.resize(static_cast<std::size_t>(threads));
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int chunk = 1; chunk < threads; ++chunk) {
    workers_.emplace_back([this, chunk] { worker_loop(chunk); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::in_parallel_region() { return tl_in_parallel_region; }

void ThreadPool::run_chunk(const Job& job, int chunk,
                           std::exception_ptr& error) {
  const std::size_t t = static_cast<std::size_t>(size());
  const std::size_t begin = job.n * static_cast<std::size_t>(chunk) / t;
  const std::size_t end = job.n * (static_cast<std::size_t>(chunk) + 1) / t;
  if (begin == end) return;
  const auto busy_start = std::chrono::steady_clock::now();
#if MFBC_TELEMETRY
  // Spans opened by the task body on this worker attach under the span that
  // was innermost on the enqueuing thread, so traces keep their nesting.
  std::int64_t prev_parent = -1;
  const bool adopt = chunk > 0 && job.parent_span >= 0;
  if (adopt) {
    prev_parent = telemetry::collector().set_thread_parent(job.parent_span);
  }
#endif
  {
    telemetry::Span span("parallel.chunk");
    if (span.active()) {
      span.attr("chunk", static_cast<std::int64_t>(chunk));
      span.attr("first", static_cast<std::int64_t>(begin));
      span.attr("count", static_cast<std::int64_t>(end - begin));
    }
    RegionGuard guard;
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      error = std::current_exception();
    }
  }
#if MFBC_TELEMETRY
  if (adopt) telemetry::collector().set_thread_parent(prev_parent);
#endif
  const auto busy_end = std::chrono::steady_clock::now();
  scratch_finish_[static_cast<std::size_t>(chunk)] = busy_end;
  scratch_busy_ns_[static_cast<std::size_t>(chunk)] =
      std::chrono::duration<double, std::nano>(busy_end - busy_start).count();
}

void ThreadPool::worker_loop(int chunk) {
  std::uint64_t seen = 0;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    run_chunk(job, chunk, errors_[static_cast<std::size_t>(chunk)]);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    // Nothing to partition: run the index as plain code on the caller, not
    // as a region, so regions nested inside it can still use the pool.
    fn(0);
    return;
  }
  if (size() == 1 || tl_in_parallel_region) {
    // Serial fallback: nested regions and single-thread pools run inline on
    // the calling thread, in index order — the exact pre-pool behaviour.
    // Nested regions are inside the enclosing chunk's busy time already, so
    // only top-level serial regions accrue utilization (on chunk 0).
    const bool track = !tl_in_parallel_region;
    const auto t0 = std::chrono::steady_clock::now();
    {
      RegionGuard guard;
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
    if (track) {
      const auto t1 = std::chrono::steady_clock::now();
      std::lock_guard<std::mutex> lock(mu_);
      util_[0].busy_ns +=
          std::chrono::duration<double, std::nano>(t1 - t0).count();
      ++util_[0].regions;
    }
    return;
  }
  Job job;
  job.fn = &fn;
  job.n = n;
#if MFBC_TELEMETRY
  job.parent_span = telemetry::collector().active_span();
#endif
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::exception_ptr& e : errors_) e = nullptr;
    for (double& b : scratch_busy_ns_) b = -1.0;
    job_ = job;
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  work_cv_.notify_all();
  run_chunk(job, /*chunk=*/0, errors_[0]);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
    // Fold this region's scratch into the running utilization: each chunk
    // that ran was busy for its measured span and then waited from its
    // finish until the barrier released (now).
    const auto barrier = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < scratch_busy_ns_.size(); ++c) {
      if (scratch_busy_ns_[c] < 0) continue;
      util_[c].busy_ns += scratch_busy_ns_[c];
      util_[c].wait_ns +=
          std::chrono::duration<double, std::nano>(barrier - scratch_finish_[c])
              .count();
      ++util_[c].regions;
    }
  }
  // Deterministic error propagation: the lowest-index failing chunk wins.
  for (const std::exception_ptr& e : errors_) {
    if (e != nullptr) std::rethrow_exception(e);
  }
}

std::vector<ChunkUtilization> ThreadPool::utilization() const {
  std::lock_guard<std::mutex> lock(mu_);
  return util_;
}

void ThreadPool::reset_utilization() {
  std::lock_guard<std::mutex> lock(mu_);
  for (ChunkUtilization& u : util_) u = {};
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

}  // namespace

ThreadPool& pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) {
    g_pool = std::make_unique<ThreadPool>(default_threads());
  }
  return *g_pool;
}

void set_threads(int n) {
  MFBC_CHECK(!ThreadPool::in_parallel_region(),
             "set_threads cannot be called from inside a parallel region");
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(n);
}

int num_threads() { return pool().size(); }

void export_pool_utilization() {
#if MFBC_TELEMETRY
  const std::vector<ChunkUtilization> util = pool().utilization();
  double busy = 0, wait = 0;
  for (std::size_t c = 0; c < util.size(); ++c) {
    const std::string prefix =
        "parallel.pool.chunk" + std::to_string(c) + ".";
    telemetry::gauge(prefix + "busy_ns", util[c].busy_ns);
    telemetry::gauge(prefix + "wait_ns", util[c].wait_ns);
    telemetry::gauge(prefix + "regions",
                     static_cast<double>(util[c].regions));
    busy += util[c].busy_ns;
    wait += util[c].wait_ns;
  }
  telemetry::gauge("parallel.pool.busy_ns", busy);
  telemetry::gauge("parallel.pool.wait_ns", wait);
#endif
}

}  // namespace mfbc::support
