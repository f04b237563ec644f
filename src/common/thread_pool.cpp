#include "common/thread_pool.h"

#include <algorithm>
#include <utility>

#include "common/trace.h"

namespace so {

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    // Pre-size the ring so bursts of a few jobs per worker never touch
    // the allocator on the submit/dequeue path.
    ring_.resize(std::max<std::size_t>(64, 4 * threads));
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_task_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::pushLocked(Job job)
{
    if (count_ == ring_.size()) {
        const std::size_t old_cap = ring_.size();
        std::vector<Job> bigger(std::max<std::size_t>(64, 2 * old_cap));
        for (std::size_t i = 0; i < count_; ++i)
            bigger[i] = std::move(ring_[(head_ + i) % old_cap]);
        ring_ = std::move(bigger);
        head_ = 0;
    }
    ring_[(head_ + count_) % ring_.size()] = std::move(job);
    ++count_;
    queued_.store(count_, std::memory_order_release);
}

ThreadPool::Job
ThreadPool::popLocked()
{
    Job job = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    queued_.store(count_, std::memory_order_release);
    return job;
}

void
ThreadPool::submit(std::function<void()> task)
{
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    bool need_notify;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pushLocked(Job{std::move(task), std::chrono::steady_clock::now()});
        // idle_workers_ only changes under the lock: when it reads zero
        // every worker is busy and will re-check queued_ before going
        // to sleep, so the notify (and its wakeup of an already-racing
        // worker) can be skipped.
        need_notify = idle_workers_ > 0;
    }
    if (need_notify)
        cv_task_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [this] {
        return in_flight_.load(std::memory_order_acquire) == 0;
    });
    if (first_error_) {
        std::exception_ptr err = std::exchange(first_error_, nullptr);
        lock.unlock();
        std::rethrow_exception(err);
    }
}

void
ThreadPool::parallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    const std::size_t blocks = n / kBlock + (n % kBlock != 0);
    if (blocks <= 1 || threadCount() <= 1) {
        if (n > 0)
            fn(0, n);
        return;
    }
    std::atomic<std::size_t> cursor{0};
    auto claim = [&] {
        for (;;) {
            const std::size_t b = cursor++;
            if (b >= blocks)
                return;
            const std::size_t begin = b * kBlock;
            fn(begin, std::min(begin + kBlock, n));
        }
    };
    for (std::size_t w = std::min(threadCount(), blocks); w > 0; --w)
        submit(claim);
    wait();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Job job;
        // Double-checked dequeue: when work is observably queued, take
        // the lock only to pop; the condition-variable wait (and the
        // extra wake/lock cycle it costs on an empty wakeup) is
        // reserved for the genuinely idle case.
        if (queued_.load(std::memory_order_acquire) == 0) {
            std::unique_lock<std::mutex> lock(mutex_);
            ++idle_workers_;
            cv_task_.wait(lock,
                          [this] { return stop_ || count_ != 0; });
            --idle_workers_;
            if (count_ == 0)
                return; // stop_ set and the queue fully drained.
            job = popLocked();
        } else {
            std::lock_guard<std::mutex> lock(mutex_);
            if (count_ == 0)
                continue; // A sibling won the race; re-evaluate.
            job = popLocked();
        }
        const double queue_wait =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - job.enqueued)
                .count();
        std::exception_ptr err;
        try {
            trace::Span span(trace::Category::Pool, "job");
            span.arg("queue_wait_s", queue_wait);
            job.fn();
        } catch (...) {
            err = std::current_exception();
        }
        if (err) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_)
                first_error_ = err;
        }
        if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            // The empty critical section orders this decrement against
            // a waiter that checked the predicate just before blocking.
            { std::lock_guard<std::mutex> lock(mutex_); }
            cv_done_.notify_all();
        }
    }
}

} // namespace so
