/**
 * @file
 * Minimal fixed-size thread pool with a parallel-for helper.
 *
 * GraceAdam (§4.6 of the paper) pairs instruction-level parallelism with
 * OpenMP-style multithreading across Grace's 72 cores; this pool is the
 * portable stand-in for that outer level of parallelism, its workers
 * claiming cache-sized blocks of the loop (parallelFor).
 */
#ifndef SO_COMMON_THREAD_POOL_H
#define SO_COMMON_THREAD_POOL_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace so {

/**
 * Fixed-size worker pool; tasks are std::function<void()>.
 *
 * Every job runs inside a so::trace "job" span (category pool) whose
 * queue_wait_s arg is its submit-to-dequeue latency; the self-profile
 * derives per-worker busy time and queue-wait percentiles from those
 * spans (docs/SELFTRACE.md).
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 means hardware_concurrency(). */
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    std::size_t threadCount() const { return workers_.size(); }

    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    /**
     * Block until all submitted tasks have finished. If any task threw,
     * rethrows the first captured exception (later ones are dropped);
     * the pool stays usable afterwards.
     */
    void wait();

    /**
     * Indices per parallelFor block: 64 Ki fp32 elements of Adam's four
     * streams (param, m, v, grad) are 1 MiB, under a 2 MiB per-core L2.
     */
    static constexpr std::size_t kBlock = std::size_t{1} << 16;

    /**
     * Run fn(begin, end) over [0, n) cut into kBlock-sized blocks (the
     * last one may be shorter) and block until done. Workers claim
     * blocks from one shared cursor until none are left, so a slow or
     * descheduled worker holds up one block, not a fixed share of n.
     * Which worker runs a block varies from call to call: fn must not
     * depend on it. Every index runs exactly once. n == 0 is a no-op;
     * when n fits one block or the pool has a single worker, fn(0, n)
     * runs inline on the caller. If fn throws, the first exception is
     * rethrown once the claimed blocks have finished (blocks nobody
     * claimed yet may be skipped), and the pool stays usable.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t, std::size_t)> &fn);

  private:
    /** A submitted task plus its enqueue time (the span's queue wait). */
    struct Job
    {
        std::function<void()> fn;
        std::chrono::steady_clock::time_point enqueued;
    };

    void workerLoop();
    /** Append to the ring, growing it when full. Caller holds mutex_. */
    void pushLocked(Job job);
    /** Pop the oldest job. Caller holds mutex_; count_ must be > 0. */
    Job popLocked();

    std::vector<std::thread> workers_;
    /**
     * Pre-sized ring buffer of pending jobs: steady-state submit/dequeue
     * reuses slots instead of allocating a queue node per job. Capacity
     * only grows (doubling), never shrinks.
     */
    std::vector<Job> ring_;
    std::size_t head_ = 0;  ///< Index of the oldest queued job.
    std::size_t count_ = 0; ///< Queued jobs (guarded by mutex_).
    /**
     * Mirror of count_ readable without the lock: workers use it for a
     * double-checked empty test, so a busy worker finishing a job pays
     * no condition-variable round trip when more work is visible (and a
     * spuriously woken one re-checks cheaply).
     */
    std::atomic<std::size_t> queued_{0};
    /** Submitted-but-unfinished jobs; wait() blocks on this. */
    std::atomic<std::size_t> in_flight_{0};
    /** Workers inside cv_task_.wait(); guarded by mutex_. submit()
     *  elides its notify when this is zero (busy workers re-check
     *  queued_ before sleeping, so the job cannot be missed). */
    std::size_t idle_workers_ = 0;
    std::mutex mutex_;
    std::condition_variable cv_task_;
    std::condition_variable cv_done_;
    bool stop_ = false;
    /** First exception thrown by a task since the last wait(). */
    std::exception_ptr first_error_;
};

} // namespace so

#endif // SO_COMMON_THREAD_POOL_H
