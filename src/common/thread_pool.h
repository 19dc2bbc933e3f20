// A small work-stealing thread pool for intra-query parallelism.  The
// engine's hot operators (interval-overlap join, hash aggregation, the
// per-group coalesce/split-aggregate sweeps) already partition their
// work before processing it; this pool fans those partitions out to
// workers.
//
// Design: one deque per executor (the constructing thread plus
// `num_threads - 1` spawned workers).  An executor pops its own deque
// LIFO (cache-warm) and steals from other deques FIFO (oldest first,
// the classic Chase-Lev discipline, here with a per-deque mutex for
// simplicity — task granularity is whole partitions, so queue traffic
// is tiny next to task cost).  The thread that calls Run() participates
// in execution, so a pool of `num_threads` applies exactly that much
// CPU and Run() never deadlocks even with zero spawned workers.
//
// Exceptions thrown by tasks are captured and the first one is
// rethrown from Run() after the batch completes (engine operators
// throw EngineError; a parallel operator must not lose it).
#ifndef PERIODK_COMMON_THREAD_POOL_H_
#define PERIODK_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace periodk {

class ThreadPool {
 public:
  /// Spawns `num_threads - 1` workers; the caller of Run() is the
  /// remaining executor.  `num_threads <= 1` spawns nothing and Run()
  /// degenerates to a sequential loop.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs every task to completion; the calling thread executes tasks
  /// alongside the workers.  Rethrows the first task exception after
  /// the whole batch has finished (remaining tasks still run, so no
  /// task observes a half-abandoned batch).
  void Run(std::vector<std::function<void()>> tasks);

 private:
  struct Queue {
    Mutex mu;
    std::deque<std::function<void()>> tasks PERIODK_GUARDED_BY(mu);
  };

  /// Pops and runs one task: own queue LIFO, then steals FIFO from the
  /// other queues.  Returns false when every queue is empty.
  bool TryRunOne(size_t home);
  void WorkerLoop(size_t id);

  // queues_[0] belongs to the Run() caller; queues_[1..] to workers.
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  Mutex wake_mu_;
  CondVar wake_cv_;
  // Tasks pushed but not yet claimed; workers sleep while it is zero.
  std::atomic<int64_t> pending_{0};
  bool stop_ PERIODK_GUARDED_BY(wake_mu_) = false;
};

/// Creates the pool on first use: a query whose operators all stay
/// single-chunk (small tables, the cached-plan serving path) never
/// spawns a thread, while the first real fan-out pays the spawn cost
/// once per execution.  Not itself thread-safe — it lives in the
/// single-threaded executor driver, which is the only caller of get().
class LazyThreadPool {
 public:
  explicit LazyThreadPool(int num_threads) : num_threads_(num_threads) {}
  int num_threads() const { return num_threads_; }
  ThreadPool* get() {
    if (pool_ == nullptr && num_threads_ > 1) {
      pool_ = std::make_unique<ThreadPool>(num_threads_);
    }
    return pool_.get();
  }

 private:
  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;
};

/// A contiguous partition of [0, n): chunk i covers [ranges[i].first,
/// ranges[i].second).  At most 4 chunks per thread, each at least
/// `min_grain` items (so tiny inputs stay sequential);
/// `num_threads <= 1` yields one chunk.  Call sites preallocate one
/// output slot per chunk and concatenate in chunk order, which makes
/// the parallel result independent of scheduling.
std::vector<std::pair<int64_t, int64_t>> PlanChunks(int num_threads,
                                                    int64_t n,
                                                    int64_t min_grain);

/// Runs body(chunk_index, begin, end) over the planned chunks — inline
/// when there is a single chunk (the sequential path stays free of any
/// pool machinery), on the pool otherwise.
void RunChunks(ThreadPool* pool,
               const std::vector<std::pair<int64_t, int64_t>>& ranges,
               const std::function<void(size_t, int64_t, int64_t)>& body);

}  // namespace periodk

#endif  // PERIODK_COMMON_THREAD_POOL_H_
