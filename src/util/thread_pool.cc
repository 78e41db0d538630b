#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "obs/metrics.h"

namespace microrec {

namespace {

// Process-wide pool gauges. All pools aggregate into the same metrics, and
// more than one pool can run at a time (a pool made for one set-up call may
// run next to a caller's own), so busy_workers sums over the running pools
// and queue_depth is the depth of whichever pool last changed its queue.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("util.thread_pool.queue_depth");
  return gauge;
}

obs::Gauge* BusyWorkersGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("util.thread_pool.busy_workers");
  return gauge;
}

obs::Counter* TasksCompletedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "util.thread_pool.tasks_completed");
  return counter;
}

obs::Counter* TasksCancelledCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "util.thread_pool.tasks_cancelled");
  return counter;
}

obs::Counter* TaskExceptionsCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "util.thread_pool.task_exceptions");
  return counter;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  assert(num_threads >= 1);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
    QueueDepthGauge()->Set(static_cast<double>(tasks_.size()));
  }
  task_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

size_t ThreadPool::cancelled_tasks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cancelled_tasks_;
}

void ThreadPool::ParallelFor(size_t count,
                             const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (workers_.size() == 1 || count == 1) {
    // Inline path: an exception propagates to the caller directly, exactly
    // like the pooled path's rethrow from Wait().
    for (size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  size_t shards = std::min(workers_.size(), count);
  for (size_t s = 0; s < shards; ++s) {
    Submit([&next, &abort, count, &fn] {
      for (size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
        if (abort.load(std::memory_order_relaxed)) return;
        try {
          fn(i);
        } catch (...) {
          // Stop sibling shards from claiming further indices, then let
          // WorkerLoop capture the exception for Wait() to rethrow.
          abort.store(true, std::memory_order_relaxed);
          throw;
        }
      }
    });
  }
  Wait();
}

size_t ThreadPool::HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

size_t ThreadPool::NumShards(size_t count, size_t shard_size) {
  assert(shard_size > 0);
  return (count + shard_size - 1) / shard_size;
}

std::pair<size_t, size_t> ThreadPool::ShardBounds(size_t count,
                                                  size_t shard_size,
                                                  size_t shard) {
  const size_t begin = shard * shard_size;
  return {begin, std::min(begin + shard_size, count)};
}

void ThreadPool::ParallelForShards(
    size_t count, size_t shard_size,
    const std::function<void(size_t, size_t)>& fn) {
  assert(shard_size > 0);
  if (count == 0) return;
  ParallelFor(NumShards(count, shard_size),
              [count, shard_size, &fn](size_t shard) {
                const auto [begin, end] = ShardBounds(count, shard_size, shard);
                fn(begin, end);
              });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
      QueueDepthGauge()->Set(static_cast<double>(tasks_.size()));
      if (first_error_ != nullptr) {
        // A sibling task threw: cancel queued work instead of running it.
        ++cancelled_tasks_;
        TasksCancelledCounter()->Increment();
        if (--in_flight_ == 0) all_done_.notify_all();
        continue;
      }
    }
    BusyWorkersGauge()->Add(1.0);
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    BusyWorkersGauge()->Add(-1.0);
    TasksCompletedCounter()->Increment();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error != nullptr) {
        TaskExceptionsCounter()->Increment();
        if (first_error_ == nullptr) first_error_ = error;
      }
      if (--in_flight_ == 0) all_done_.notify_all();
    }
  }
}

PoolForCall::PoolForCall(ThreadPool* pool)
    : owned_(pool == nullptr
                 ? std::make_unique<ThreadPool>(ThreadPool::HardwareThreads())
                 : nullptr),
      pool_(pool == nullptr ? owned_.get() : pool) {}

}  // namespace microrec
