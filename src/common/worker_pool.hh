/**
 * @file
 * A persistent pool of worker threads draining one task queue — used by
 * the study executor (core/orchestrator.hh), one pool per study or
 * standalone campaign.
 */

#ifndef GPR_COMMON_WORKER_POOL_HH
#define GPR_COMMON_WORKER_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gpr {

/**
 * A persistent pool of worker threads draining one task queue.  Tasks
 * may be submitted from any thread; waitIdle() blocks until the queue is
 * empty and every worker is idle, so one pool can serve several waves of
 * tasks (golden runs, then shards) without re-spawning threads.
 */
class WorkerPool
{
  public:
    /** @p jobs worker threads; 0 = hardware concurrency. */
    explicit WorkerPool(unsigned jobs = 0);
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    void submit(std::function<void()> task);
    /** Block until all submitted tasks have finished. */
    void waitIdle();

    unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::deque<std::function<void()>> queue_;
    std::size_t active_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

} // namespace gpr

#endif // GPR_COMMON_WORKER_POOL_HH
