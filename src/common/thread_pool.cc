#include "src/common/thread_pool.h"

#include <sched.h>

#include <algorithm>

namespace tierscape {

int HostThreads() {
  constexpr int kMaxHostThreads = 8;
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int available = sched_getaffinity(0, sizeof(cpus), &cpus) == 0 ? CPU_COUNT(&cpus) : 1;
  return std::clamp(available, 1, kMaxHostThreads);
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(1, threads)) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (threads_ == 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  // The first parallel batch spawns the workers. Only the owning thread
  // calls ParallelFor, so workers_ needs no lock.
  for (int i = static_cast<int>(workers_.size()) + 1; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->size = n;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch_ = batch;
    ++generation_;
  }
  work_cv_.notify_all();
  RunShard(*batch);  // the caller is one of the workers
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return batch->completed >= batch->size; });
  batch_.reset();
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  while (true) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || (generation_ != seen && batch_ != nullptr); });
      if (shutdown_) {
        return;
      }
      seen = generation_;
      batch = batch_;
    }
    RunShard(*batch);
  }
}

void ThreadPool::RunShard(Batch& batch) {
  std::size_t done = 0;
  for (std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed); i < batch.size;
       i = batch.next.fetch_add(1, std::memory_order_relaxed)) {
    (*batch.fn)(i);
    ++done;
  }
  if (done == 0) {
    return;
  }
  bool finished = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch.completed += done;
    finished = batch.completed >= batch.size;
  }
  if (finished) {
    done_cv_.notify_all();
  }
}

}  // namespace tierscape
