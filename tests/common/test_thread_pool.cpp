#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace so {
namespace {

TEST(ThreadPool, RunsSubmittedTasks)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitWithNoTasksReturnsImmediately)
{
    ThreadPool pool(2);
    pool.wait();
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    constexpr std::size_t B = ThreadPool::kBlock;
    // Lengths around block boundaries: up to one block runs inline, more
    // on the pool. The 8-worker pool has more workers than 2 or 3 blocks.
    for (std::size_t workers : {4, 8}) {
        ThreadPool pool(workers);
        for (std::size_t n : {std::size_t{100000}, B - 1, B, B + 1,
                              2 * B - 1, 2 * B, 2 * B + 1, 5 * B - 1,
                              5 * B, 5 * B + 1}) {
            std::vector<std::atomic<int>> hits(n);
            std::atomic<int> misaligned{0};
            pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
                // Each call is one block, or the whole range inline.
                misaligned += begin % B != 0 ||
                              (end - begin > B && end - begin != n);
                for (std::size_t i = begin; i < end; ++i)
                    ++hits[i];
            });
            EXPECT_EQ(misaligned.load(), 0) << workers << " workers, n " << n;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(hits[i].load(), 1)
                    << workers << " workers, n " << n << ", index " << i;
        }
    }
}

TEST(ThreadPool, ParallelForSmallRunsInline)
{
    ThreadPool pool(4);
    // Not atomic: n up to one block must run inline on this thread.
    for (std::size_t n : {std::size_t{100}, ThreadPool::kBlock}) {
        std::size_t sum = 0;
        std::size_t calls = 0;
        std::thread::id ran_on;
        pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
            ++calls;
            ran_on = std::this_thread::get_id();
            for (std::size_t i = begin; i < end; ++i)
                sum += i;
        });
        EXPECT_EQ(calls, 1u) << n;
        EXPECT_EQ(ran_on, std::this_thread::get_id()) << n;
        EXPECT_EQ(sum, n * (n - 1) / 2) << n;
    }
}

TEST(ThreadPool, ParallelForZeroIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    pool.parallelFor(0, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadPoolStillCorrect)
{
    ThreadPool pool(1);
    for (std::size_t n : {std::size_t{10000}, 3 * ThreadPool::kBlock + 7}) {
        std::atomic<long> sum{0};
        pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
            long local = 0;
            for (std::size_t i = begin; i < end; ++i)
                local += static_cast<long>(i);
            sum += local;
        });
        EXPECT_EQ(sum.load(), static_cast<long>(n * (n - 1) / 2)) << n;
    }
}

TEST(ThreadPool, DefaultThreadCountPositive)
{
    ThreadPool pool;
    EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, ReusableAcrossWaves)
{
    ThreadPool pool(3);
    for (int wave = 0; wave < 5; ++wave) {
        std::atomic<int> count{0};
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { ++count; });
        pool.wait();
        EXPECT_EQ(count.load(), 20);
    }
}

class ThreadPoolStress : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ThreadPoolStress, PushAndDrain100kNoopJobs)
{
    // Hammers the pre-sized ring and the notify-elision path: a mix of
    // burst submission (queue depth >> capacity growth) and interleaved
    // waits (empty wakeups while workers race the submitter).
    ThreadPool pool(GetParam());
    std::atomic<std::size_t> ran{0};
    constexpr std::size_t kJobs = 100000;
    constexpr std::size_t kWaves = 10;
    for (std::size_t wave = 0; wave < kWaves; ++wave) {
        for (std::size_t i = 0; i < kJobs / kWaves; ++i)
            pool.submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
        pool.wait();
        ASSERT_EQ(ran.load(), (wave + 1) * (kJobs / kWaves));
    }
    EXPECT_EQ(ran.load(), kJobs);
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadPoolStress,
                         ::testing::Values(std::size_t{1},
                                           std::size_t{4}));

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("task boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(ThreadPool, FirstExceptionWinsOtherTasksStillRun)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&, i] {
            ++ran;
            if (i % 10 == 0)
                throw std::runtime_error("boom " + std::to_string(i));
        });
    }
    // Exactly one of the five exceptions surfaces; every task ran.
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, PoolUsableAfterException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: the next wave runs clean.
    std::atomic<int> count{0};
    for (int i = 0; i < 10; ++i)
        pool.submit([&] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, ParallelForPropagatesException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100000,
                                  [&](std::size_t begin, std::size_t) {
                                      if (begin == 0)
                                          throw std::runtime_error("chunk");
                                  }),
                 std::runtime_error);

    // From the last (short) block too; the pool stays usable and the
    // next call covers every index.
    const std::size_t n = 3 * ThreadPool::kBlock + 7;
    EXPECT_THROW(pool.parallelFor(n,
                                  [&](std::size_t, std::size_t end) {
                                      if (end == n)
                                          throw std::runtime_error("last");
                                  }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
            ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

} // namespace
} // namespace so
