#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

namespace periodk {

namespace {

/// Shared completion state of one Run() batch.
struct BatchState {
  Mutex mu;
  CondVar cv;
  int64_t remaining PERIODK_GUARDED_BY(mu) = 0;
  std::exception_ptr error PERIODK_GUARDED_BY(mu);
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  int workers = std::max(0, num_threads - 1);
  queues_.reserve(static_cast<size_t>(workers) + 1);
  for (int i = 0; i <= workers; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 1; i <= workers; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this,
                          static_cast<size_t>(i));
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::TryRunOne(size_t home) {
  std::function<void()> task;
  {
    Queue& own = *queues_[home];
    MutexLock lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
    }
  }
  if (!task) {
    for (size_t off = 1; off < queues_.size() && !task; ++off) {
      Queue& victim = *queues_[(home + off) % queues_.size()];
      MutexLock lock(victim.mu);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.front());
        victim.tasks.pop_front();
      }
    }
  }
  if (!task) return false;
  pending_.fetch_sub(1, std::memory_order_relaxed);
  task();
  return true;
}

void ThreadPool::WorkerLoop(size_t id) {
  for (;;) {
    if (TryRunOne(id)) continue;
    MutexLock lock(wake_mu_);
    // Explicit loop instead of a predicate wait: a predicate lambda
    // would be analyzed outside the lock (see CondVar).
    while (!stop_ && pending_.load(std::memory_order_relaxed) <= 0) {
      wake_cv_.Wait(wake_mu_);
    }
    if (stop_) return;
  }
}

void ThreadPool::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (workers_.empty()) {
    // Same batch semantics as the pooled path: every task runs, the
    // first exception is rethrown once the batch has drained.
    std::exception_ptr error;
    for (std::function<void()>& task : tasks) {
      try {
        task();
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  auto state = std::make_shared<BatchState>();
  {
    MutexLock lock(state->mu);
    state->remaining = static_cast<int64_t>(tasks.size());
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto wrapped = [task = std::move(tasks[i]), state] {
      try {
        task();
      } catch (...) {
        MutexLock lock(state->mu);
        if (!state->error) state->error = std::current_exception();
      }
      MutexLock lock(state->mu);
      if (--state->remaining == 0) state->cv.NotifyAll();
    };
    Queue& q = *queues_[i % queues_.size()];
    MutexLock lock(q.mu);
    q.tasks.push_back(std::move(wrapped));
  }
  pending_.fetch_add(static_cast<int64_t>(tasks.size()),
                     std::memory_order_relaxed);
  {
    // Lock/unlock pairs the pending_ update with the workers' wait-loop
    // check so no wakeup is lost between check and wait.
    MutexLock lock(wake_mu_);
  }
  wake_cv_.NotifyAll();

  // The caller works the batch down alongside the workers, then waits
  // for in-flight tasks it could not claim.
  std::exception_ptr error;
  for (;;) {
    if (TryRunOne(0)) continue;
    MutexLock lock(state->mu);
    while (state->remaining != 0) state->cv.Wait(state->mu);
    error = state->error;
    break;
  }
  if (error) std::rethrow_exception(error);
}

std::vector<std::pair<int64_t, int64_t>> PlanChunks(int num_threads,
                                                    int64_t n,
                                                    int64_t min_grain) {
  int64_t threads = num_threads;
  int64_t chunks = 1;
  if (threads > 1 && n > 0) {
    // Floor division honors the contract that every chunk carries at
    // least min_grain items (ceil would split n = min_grain + 1 into
    // two half-grain chunks).
    int64_t by_grain = min_grain > 0 ? n / min_grain : n;
    chunks = std::clamp<int64_t>(std::min(threads * 4, by_grain), 1, n);
  }
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ranges.reserve(static_cast<size_t>(chunks));
  for (int64_t c = 0; c < chunks; ++c) {
    ranges.emplace_back(c * n / chunks, (c + 1) * n / chunks);
  }
  return ranges;
}

void RunChunks(ThreadPool* pool,
               const std::vector<std::pair<int64_t, int64_t>>& ranges,
               const std::function<void(size_t, int64_t, int64_t)>& body) {
  if (pool == nullptr || ranges.size() <= 1) {
    for (size_t c = 0; c < ranges.size(); ++c) {
      body(c, ranges[c].first, ranges[c].second);
    }
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c) {
    tasks.push_back(
        [&body, &ranges, c] { body(c, ranges[c].first, ranges[c].second); });
  }
  pool->Run(std::move(tasks));
}

}  // namespace periodk
