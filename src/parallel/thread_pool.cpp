#include "parallel/thread_pool.h"

#include <algorithm>

namespace qmg {

namespace {
thread_local bool t_in_parallel_region = false;

/// Marks the calling thread as inside a parallel region for its lifetime
/// and restores the previous state on exit — exceptions included.
class RegionScope {
 public:
  RegionScope() : was_(t_in_parallel_region) { t_in_parallel_region = true; }
  ~RegionScope() { t_in_parallel_region = was_; }
  RegionScope(const RegionScope&) = delete;
  RegionScope& operator=(const RegionScope&) = delete;

 private:
  bool was_;
};
}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() {
  const unsigned hw = std::thread::hardware_concurrency();
  n_threads_ = std::max(1, static_cast<int>(hw));
  start_workers();
}

ThreadPool::~ThreadPool() { stop_workers(); }

bool ThreadPool::in_parallel_region() { return t_in_parallel_region; }

void ThreadPool::start_workers() {
  // Capture the generation at spawn time: a worker that read it only after
  // starting up could miss a job launched between spawn and startup.
  long spawn_generation;
  {
    MutexLock lock(mutex_);
    shutdown_ = false;
    spawn_generation = generation_;
  }
  workers_.reserve(static_cast<size_t>(n_threads_ - 1));
  for (int id = 1; id < n_threads_; ++id)
    workers_.emplace_back(
        [this, id, spawn_generation] { worker_loop(id, spawn_generation); });
}

void ThreadPool::stop_workers() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::resize(int n_threads) {
  if (n_threads <= 0)
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  if (n_threads == n_threads_) return;
  stop_workers();
  n_threads_ = n_threads;
  start_workers();
}

void ThreadPool::worker_loop(int id, long seen) {
  for (;;) {
    std::function<void(int)> job;
    {
      MutexLock lock(mutex_);
      while (!shutdown_ && generation_ == seen) cv_start_.wait(lock);
      if (shutdown_) return;
      seen = generation_;
      job = job_;
    }
    std::exception_ptr error;
    {
      const RegionScope region;
      try {
        job(id);
      } catch (...) {
        error = std::current_exception();
      }
    }
    {
      MutexLock lock(mutex_);
      if (error && !error_) error_ = error;
      --pending_;
    }
    cv_done_.notify_one();
  }
}

void ThreadPool::run(const std::function<void(int)>& job) {
  if (n_threads_ == 1 || t_in_parallel_region) {
    // Degenerate pool or nested region: the caller does all the work.
    const RegionScope region;
    job(0);
    return;
  }
  MutexLock launch(launch_mutex_);
  {
    MutexLock lock(mutex_);
    job_ = job;
    pending_ = static_cast<int>(workers_.size());
    error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();
  std::exception_ptr error;
  {
    const RegionScope region;
    try {
      job(0);
    } catch (...) {
      error = std::current_exception();
    }
  }
  {
    MutexLock lock(mutex_);
    if (error && !error_) error_ = error;
    while (pending_ != 0) cv_done_.wait(lock);
    job_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace qmg
