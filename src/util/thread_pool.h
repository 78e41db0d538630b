// Fixed-size thread pool used to parallelise embarrassingly parallel work:
// per-user model construction, per-configuration sweeps, and the set-up of a
// corpus. Set-up runs on every core by default: corpus::TokenizedCorpus and
// rec::PreprocessedCorpus tokenize and stop-test a chunk of consecutive
// tweets per task on a caller's pool or, when it passes none, on a
// PoolForCall of HardwareThreads() workers. The calling thread assembles the
// chunks in tweet order, so every token is the same at any pool size. Stop
// counting, the gram tables (ids in tweet order) and the synthetic generator
// (one draw stream) stay serial. The paper's measurements are
// single-threaded per model (Section 4 excludes parallelised representation
// models), so model timing stays on one thread: timing-sensitive code paths
// take a `parallelism = 1` switch, and ExperimentRunner::Run builds a model's
// gram table before its training clock starts.
#ifndef MICROREC_UTIL_THREAD_POOL_H_
#define MICROREC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace microrec {

/// Minimal task-queue thread pool. Tasks are void() closures and are
/// expected not to throw (per the Status-based error discipline) — but an
/// exception that does escape a task is captured instead of terminating the
/// process: the first one is rethrown from the next Wait() (and hence
/// ParallelFor), and tasks still queued at capture time are cancelled
/// (drained without running). After the rethrow the pool is clean and
/// reusable.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished or been cancelled.
  /// Rethrows the first exception that escaped a task since the last Wait().
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Runs `fn(i)` for i in [0, count) across the pool and waits. When the
  /// pool has one thread the calls happen inline on the caller. Rethrows
  /// like Wait(); remaining indices are skipped after a throw.
  void ParallelFor(size_t count, const std::function<void(size_t)>& fn);

  /// Runs `fn(begin, end)` over contiguous shards of [0, count), each at
  /// most `shard_size` indices. Shard boundaries depend only on (count,
  /// shard_size) — never on thread count or scheduling — so a computation
  /// that writes result slot i inside its shard produces bit-identical
  /// output for any pool size. Rethrows like Wait().
  void ParallelForShards(size_t count, size_t shard_size,
                         const std::function<void(size_t, size_t)>& fn);

  /// The shard count ParallelForShards uses for (count, shard_size): a
  /// pure function of its arguments. Shared with topic::ParallelGibbs so
  /// parallel-training shards follow the same boundary protocol as the
  /// scoring hot path (DESIGN.md §9).
  static size_t NumShards(size_t count, size_t shard_size);

  /// Half-open bounds [begin, end) of shard `shard` of (count, shard_size);
  /// also a pure function of its arguments.
  static std::pair<size_t, size_t> ShardBounds(size_t count,
                                               size_t shard_size,
                                               size_t shard);

  /// Tasks discarded unrun because an earlier task threw (test hook).
  size_t cancelled_tasks() const;

  /// std::thread::hardware_concurrency(), at least 1: the size of a pool
  /// made for one call.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  // First exception to escape a task since the last Wait(); while set,
  // queued tasks are drained without running.
  std::exception_ptr first_error_;
  size_t cancelled_tasks_ = 0;
};

/// `pool` when it is non-null, else a pool of ThreadPool::HardwareThreads()
/// workers that lives as long as this object: how a call that takes an
/// optional pool runs on every core when it is given none.
class PoolForCall {
 public:
  explicit PoolForCall(ThreadPool* pool);

  ThreadPool& operator*() const { return *pool_; }
  ThreadPool* operator->() const { return pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

}  // namespace microrec

#endif  // MICROREC_UTIL_THREAD_POOL_H_
