#pragma once
// Persistent worker-thread pool backing the Threaded dispatch backend
// (parallel/dispatch.h).  Deliberately minimal and deterministic:
//
//   - workers are created once and parked on a condition variable between
//     parallel regions (no per-launch thread spawn cost);
//   - work is assigned by static partition of the index/chunk space — no
//     work stealing, so which worker computes which chunk is a pure
//     function of (n, num_threads) and results are reproducible
//     run-to-run;
//   - the calling thread participates as worker 0, so a pool of size T
//     holds T-1 OS threads.
//
// Nested parallel regions execute serially on the calling worker (the
// dispatch layer checks in_parallel_region() and falls back), which keeps
// inner BLAS calls inside an already-parallel solver region correct.
//
// Several non-pool threads may call run() at once (two contexts on two
// threads, a direct solve racing a SolveQueue dispatcher): launches are
// serialized by a launch mutex, so one job owns the workers from launch to
// join.  An exception thrown by the job — on a worker or on the caller —
// never escapes a worker thread: the first one is captured, every worker
// is joined, and run() rethrows it on the caller.
//
// Lock discipline is statically checked (util/thread_annotations.h): the
// park/launch protocol state — job, generation, pending count, shutdown
// flag — is guarded by one mutex, and the CI thread-safety build fails on
// any unguarded access.

#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace qmg {

class ThreadPool {
 public:
  static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers participating in a region, including the caller.  Always >= 1.
  int num_threads() const { return n_threads_; }

  /// Re-shape the pool to `n_threads` total workers (caller included).
  /// Must not be called from inside a parallel region.  n_threads <= 0
  /// selects std::thread::hardware_concurrency().
  void resize(int n_threads);

  /// True while the calling thread is executing inside run() — used by the
  /// dispatch layer to serialize nested parallel regions.
  static bool in_parallel_region();

  /// Execute job(worker_id) for worker_id in [0, num_threads()), blocking
  /// until every worker finishes.  The caller runs worker 0.  Safe to call
  /// from several threads at once (launches are serialized); if any
  /// job(worker_id) throws, the first exception is rethrown here after all
  /// workers have finished.
  void run(const std::function<void(int)>& job)
      QMG_EXCLUDES(mutex_, launch_mutex_);

 private:
  ThreadPool();
  ~ThreadPool();

  void worker_loop(int id, long spawn_generation) QMG_EXCLUDES(mutex_);
  void stop_workers() QMG_EXCLUDES(mutex_);
  void start_workers() QMG_EXCLUDES(mutex_);

  /// OS threads (n_threads_ - 1 of them).  Mutated only by
  /// start_workers()/stop_workers(), which run when no worker exists —
  /// construction, destruction, resize() — so no lock guards them.
  std::vector<std::thread> workers_;
  /// Pool width.  Written only by resize() while the pool is stopped; read
  /// concurrently by run()/num_threads() (callers must not race resize(),
  /// per its contract above).
  int n_threads_ = 1;

  /// Held by a multi-worker launch from launch to join: one job owns the
  /// workers at a time.  Taken before mutex_, never while holding it.
  Mutex launch_mutex_;
  mutable Mutex mutex_;
  CondVar cv_start_;
  CondVar cv_done_;
  std::function<void(int)> job_ QMG_GUARDED_BY(mutex_);
  long generation_ QMG_GUARDED_BY(mutex_) = 0;
  int pending_ QMG_GUARDED_BY(mutex_) = 0;
  bool shutdown_ QMG_GUARDED_BY(mutex_) = false;
  /// First exception thrown by the current job (worker or caller).
  std::exception_ptr error_ QMG_GUARDED_BY(mutex_);
};

}  // namespace qmg
