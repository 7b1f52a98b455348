// Fixed-size worker pool for the daemon's push threads (PT2, §6/§7.2).
//
// The only entry point is a blocking parallel-for over an index range. Tasks
// must be pure with respect to shared state and write only to slots owned by
// their index, so the result of a ParallelFor is identical for every pool
// size — including 1, where the loop runs inline on the caller with no
// threads involved. This is what lets the migration pipeline use real
// parallelism for wall-clock speed while keeping virtual-time results
// byte-identical across thread counts (the determinism invariant guarded by
// DriverTest.DeterministicAcrossThreadsAndCache).
//
// Workers are spawned lazily, by the first ParallelFor with two or more
// indices: a pool that only ever sees batches of n <= 1 never creates a
// thread, so a process whose push pool has no parallel work stays
// single-threaded (and keeps libc's and libstdc++'s single-threaded fast
// paths).
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tierscape {

// The pool size that fits this host: the CPUs this process may run on
// (sched_getaffinity), clamped to [1, 8] — 8 being the largest push-thread
// count bench/micro_migration measures.
int HostThreads();

class ThreadPool {
 public:
  // `threads` is the total worker count including the calling thread:
  // 1 means fully serial (no threads are ever spawned), N > 1 spawns N - 1
  // workers — on the first ParallelFor with n >= 2 — that participate
  // alongside the caller.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // The configured count, whether or not the workers have been spawned yet.
  int threads() const { return threads_; }

  // Runs fn(0) .. fn(n - 1), returning only when every index has completed.
  // Indices are claimed dynamically, so execution order across workers is
  // arbitrary — callers must not let it influence results. Not reentrant:
  // only the owning (orchestrator) thread may call this, and fn must not
  // call back into the pool.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  // One batch of work; workers hold a shared_ptr so a straggler draining an
  // old batch can never claim indices from a newer one.
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t size = 0;
    std::atomic<std::size_t> next{0};
    std::size_t completed = 0;  // guarded by ThreadPool::mu_
  };

  void WorkerLoop();
  void RunShard(Batch& batch);

  int threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Batch> batch_;  // guarded by mu_; null when idle
  std::uint64_t generation_ = 0;  // guarded by mu_
  bool shutdown_ = false;         // guarded by mu_
  std::vector<std::thread> workers_;  // empty until the first parallel batch
};

}  // namespace tierscape

#endif  // SRC_COMMON_THREAD_POOL_H_
