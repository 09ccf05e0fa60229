#include "common/worker_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace gpr {

WorkerPool::WorkerPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    threads_.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        GPR_ASSERT(!stop_, "submit() on a stopped pool");
        queue_.push_back(std::move(task));
    }
    wake_.notify_one();
}

void
WorkerPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void
WorkerPool::workerLoop()
{
    while (true) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        task();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace gpr
