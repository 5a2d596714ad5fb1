#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/error.hpp"

namespace plc::util {

int ThreadPool::resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::max(1, static_cast<int>(hardware));
}

int jobs_from_env() {
  if (const char* jobs = std::getenv("PLC_JOBS");
      jobs != nullptr && jobs[0] != '\0') {
    return std::atoi(jobs);
  }
  return 0;
}

ThreadPool::ThreadPool(int threads, std::function<void(int)> on_worker_start) {
  const int count = resolve_jobs(threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this, i, on_worker_start] {
      if (on_worker_start) on_worker_start(i);
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    require(!stopping_, "ThreadPool::submit: pool is shutting down");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

std::int64_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::int64_t>(queue_.size());
}

std::int64_t ThreadPool::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  batch_done_.wait(lock, [this] { return in_flight_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      // Drain the queue even when stopping: destruction waits for every
      // submitted task, matching the serial loop it replaces.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (first_error_ == nullptr) first_error_ = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) batch_done_.notify_all();
    }
  }
}

}  // namespace plc::util
