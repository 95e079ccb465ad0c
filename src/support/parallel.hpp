// Shared-memory parallel execution engine for the virtual-rank kernels.
//
// The simulated machine in src/sim charges an α–β *model* of a distributed
// run, but until now every virtual rank's local multiply executed serially
// on one OS thread — wall-clock measured loop order, not kernel quality
// (the paper assumes the per-rank work runs on p processors at once, §5.1).
// This pool runs those independent per-rank block kernels on real threads.
//
// Design constraints, in priority order:
//
//  1. **Determinism.** parallel_for uses a fixed static partition of the
//     index range (no work stealing), and callers defer all side effects
//     that must be ordered (ledger charges, stats sums) into per-index
//     slots that the calling thread replays in index order after the
//     barrier. Results are bit-identical for every thread count.
//  2. **Serial fidelity.** With 1 thread (pool size 1, MFBC_THREADS=1, or a
//     nested region) parallel_for degenerates to a plain loop on the
//     calling thread — exactly the pre-pool behaviour.
//  3. **No nested pools.** A parallel_for issued from inside another
//     parallel_for region (e.g. a per-layer task that itself reaches a
//     per-block loop) runs inline serially on that worker. A one-index
//     parallel_for is not a region: it runs its index on the caller, so
//     the loops inside a one-layer multiply still reach the pool.
//
// The global pool is sized by the MFBC_THREADS environment variable, or by
// set_threads() (the CLI/bench `--threads` flag), defaulting to
// hardware_concurrency.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mfbc::support {

/// Per-chunk utilization of the pool, accumulated across top-level regions:
/// how long each chunk spent executing task bodies (busy) versus waiting at
/// the region barrier for the slowest chunk (wait). The busy/wait split is
/// what lets the threads-scaling benches attribute sublinear speedups to
/// load imbalance rather than kernel cost.
struct ChunkUtilization {
  double busy_ns = 0;        ///< executing fn(i) calls
  double wait_ns = 0;        ///< finished, waiting for the region barrier
  std::uint64_t regions = 0; ///< top-level regions in which this chunk ran

  double total_ns() const { return busy_ns + wait_ns; }
};

/// Fixed-size pool of worker threads executing statically partitioned index
/// ranges. The calling thread participates as chunk 0, so a pool of size n
/// spawns n-1 OS threads. Thread-safe for use from one submitting thread at
/// a time (the library funnels all regions through the calling algorithm).
class ThreadPool {
 public:
  /// `threads` >= 1 is the total parallelism including the calling thread.
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Run fn(i) for every i in [0, n), partitioned contiguously over the
  /// pool's threads, and block until all complete. fn must be safe to call
  /// concurrently for distinct i; any ordered side effects must be deferred
  /// by the caller into per-index slots and applied after this returns.
  /// The first exception (lowest chunk index) is rethrown on the caller.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True while the calling thread is inside a parallel_for of any pool
  /// (worker or caller); further regions on this thread run inline.
  static bool in_parallel_region();

  /// Per-chunk busy/wait accumulation since construction (or the last
  /// reset); index 0 is the calling thread. Nested inline regions are not
  /// tracked separately — their time is part of the enclosing chunk's busy.
  std::vector<ChunkUtilization> utilization() const;
  void reset_utilization();

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::int64_t parent_span = -1;  ///< telemetry parent for worker spans
  };

  void worker_loop(int chunk);
  void run_chunk(const Job& job, int chunk, std::exception_ptr& error);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Job job_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< one slot per chunk

  // Utilization bookkeeping: workers write their per-region scratch slot
  // before the barrier decrement; the submitting thread folds the scratch
  // into util_ under mu_ after the barrier, so no slot is ever shared.
  std::vector<ChunkUtilization> util_;
  std::vector<double> scratch_busy_ns_;  ///< -1 = chunk had no work
  std::vector<std::chrono::steady_clock::time_point> scratch_finish_;
};

/// The process-wide pool used by the dist/mfbc kernels. First use sizes it
/// from MFBC_THREADS (default: hardware_concurrency).
ThreadPool& pool();

/// Resize the global pool (the `--threads` knob). n >= 1; n == 1 restores
/// exact serial execution. Must not be called from inside a parallel region.
void set_threads(int n);

/// Current global pool size (total threads including the caller).
int num_threads();

/// Snapshot the global pool's per-chunk utilization into telemetry gauges:
/// parallel.pool.chunk<k>.{busy_ns,wait_ns,regions} per chunk plus
/// parallel.pool.{busy_ns,wait_ns} totals. Called by the bench harness and
/// the CLI before writing run artifacts; a no-op with telemetry off.
void export_pool_utilization();

/// Convenience wrapper: pool().parallel_for(n, fn).
inline void parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn) {
  pool().parallel_for(n, fn);
}

/// Rule 1 as one call: run body(i) for every i in [0, n) on the pool, then
/// replay(i) on the calling thread in ascending i once the region's barrier
/// has passed. body writes only index i's own state, including the slots
/// its deferred charges and stats go in; replay applies them, so the ledger
/// and every stats sum see the serial order at every thread count.
template <typename Body, typename Replay>
void parallel_for_replay(std::size_t n, const Body& body,
                         const Replay& replay) {
  parallel_for(n, body);
  for (std::size_t i = 0; i < n; ++i) replay(i);
}

}  // namespace mfbc::support
