// Fixed-size worker pool for embarrassingly parallel simulation tasks.
//
// The pool exists for one pattern: shard independent (sweep-point ×
// repetition) tasks across cores and rejoin at a barrier. Tasks must not
// touch shared mutable state — each task writes into its own pre-allocated
// result slot, and the caller merges slots in task-index order after
// wait(), so results never depend on thread count or schedule order.
//
// Exceptions thrown by tasks are captured (the first one wins) and
// rethrown from wait(), so a failing sweep point surfaces exactly like it
// would in a serial loop. The destructor drains the queue and joins every
// worker; submitting after shutdown began throws.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace plc::util {

class ThreadPool {
 public:
  /// Starts `threads` workers; 0 means one per hardware thread.
  /// `on_worker_start(i)` runs once on each worker thread before it
  /// accepts tasks (used to label profiler tracks); it must not touch
  /// the pool.
  explicit ThreadPool(int threads = 0,
                      std::function<void(int)> on_worker_start = {});

  /// Drains the queue, then joins every worker. A pending task exception
  /// that was never observed through wait() is swallowed (the serial
  /// equivalent would have already propagated; see wait()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task. Throws plc::Error after shutdown began.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task threw (clearing it, so the pool stays
  /// usable for the next batch).
  void wait();

  /// Tasks waiting in the queue (not yet picked up by a worker).
  /// Mutex-guarded; safe from any thread — the scheduling-backpressure
  /// gauge telemetry scrapes expose as plc_pool_queue_depth.
  std::int64_t queue_depth() const;

  /// Queued plus currently executing tasks (plc_pool_in_flight).
  std::int64_t in_flight() const;

  /// Resolves a --jobs value: positive is taken as-is, 0 (or negative)
  /// means one job per hardware thread (at least 1).
  static int resolve_jobs(int jobs);

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable batch_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::int64_t in_flight_ = 0;  ///< Queued + currently executing tasks.
  std::exception_ptr first_error_;
  bool stopping_ = false;
};

/// The conventional --jobs default: $PLC_JOBS, where 0, unparsable or
/// unset means "one job per hardware thread" (resolved lazily by
/// ThreadPool / resolve_jobs). The single definition shared by the bench
/// harnesses, the CLI and ParallelRunner callers.
int jobs_from_env();

}  // namespace plc::util
