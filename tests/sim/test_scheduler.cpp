#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sim/graph.h"

namespace so::sim {
namespace {

TEST(Scheduler, SingleTask)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    g.addTask(r, 2.0, "a");
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.start[0], 0.0);
    EXPECT_DOUBLE_EQ(s.finish[0], 2.0);
    EXPECT_DOUBLE_EQ(s.makespan, 2.0);
}

TEST(Scheduler, ChainRespectsDependencies)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    const TaskId b = g.addTask(r, 2.0, "b", {a});
    const TaskId c = g.addTask(r, 3.0, "c", {b});
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.start[b], 1.0);
    EXPECT_DOUBLE_EQ(s.start[c], 3.0);
    EXPECT_DOUBLE_EQ(s.makespan, 6.0);
}

TEST(Scheduler, IndependentTasksSerializeOnOneSlot)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    g.addTask(r, 1.0, "a");
    g.addTask(r, 1.0, "b");
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.makespan, 2.0);
}

TEST(Scheduler, CrossResourceOverlap)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId link = g.addResource("D2H");
    // GPU computes two chunks; each chunk's transfer overlaps the next
    // chunk's compute.
    const TaskId c0 = g.addTask(gpu, 1.0, "c0");
    const TaskId t0 = g.addTask(link, 1.0, "t0", {c0});
    const TaskId c1 = g.addTask(gpu, 1.0, "c1", {c0});
    const TaskId t1 = g.addTask(link, 1.0, "t1", {c1});
    (void)t0;
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.start[c1], 1.0);       // Right after c0.
    EXPECT_DOUBLE_EQ(s.start[t1], 2.0);       // t0 done at 2.0.
    EXPECT_DOUBLE_EQ(s.makespan, 3.0);        // One transfer exposed.
}

TEST(Scheduler, PriorityBreaksTies)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId low = g.addTask(r, 1.0, "low", {}, 5);
    const TaskId high = g.addTask(r, 1.0, "high", {}, -5);
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.start[high], 0.0);
    EXPECT_DOUBLE_EQ(s.start[low], 1.0);
}

TEST(Scheduler, InsertionOrderBreaksEqualPriority)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId first = g.addTask(r, 1.0, "first");
    const TaskId second = g.addTask(r, 1.0, "second");
    const Schedule s = Scheduler().run(g);
    EXPECT_LT(s.start[first], s.start[second]);
}

TEST(Scheduler, ZeroDurationTasksActAsOrderingPoints)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    const TaskId barrier = g.addTask(r, 0.0, "barrier", {a});
    const TaskId b = g.addTask(r, 1.0, "b", {barrier});
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.start[b], 1.0);
    EXPECT_DOUBLE_EQ(s.makespan, 2.0);
}

TEST(Scheduler, DiamondDependency)
{
    // The two branches run concurrently on two resources.
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const ResourceId other = g.addResource("GPU2");
    const TaskId src = g.addTask(r, 1.0, "src");
    const TaskId left = g.addTask(r, 2.0, "left", {src});
    const TaskId right = g.addTask(other, 3.0, "right", {src});
    const TaskId sink = g.addTask(r, 1.0, "sink", {left, right});
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.start[left], 1.0);
    EXPECT_DOUBLE_EQ(s.start[right], 1.0);
    EXPECT_DOUBLE_EQ(s.start[sink], 4.0); // After the slower branch.
    EXPECT_DOUBLE_EQ(s.makespan, 5.0);
}

TEST(Scheduler, DeterministicAcrossRuns)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpus[] = {g.addResource("CPU0"), g.addResource("CPU1"),
                               g.addResource("CPU2")};
    TaskId prev = kInvalidTask;
    for (int i = 0; i < 50; ++i) {
        std::vector<TaskId> deps;
        if (prev != kInvalidTask)
            deps.push_back(prev);
        prev = g.addTask(gpu, 0.1 + i * 0.01, "g", deps);
        g.addTask(cpus[i % 3], 0.2, "c", {prev});
    }
    const Schedule s1 = Scheduler().run(g);
    const Schedule s2 = Scheduler().run(g);
    ASSERT_EQ(s1.start.size(), s2.start.size());
    for (std::size_t i = 0; i < s1.start.size(); ++i) {
        EXPECT_DOUBLE_EQ(s1.start[i], s2.start[i]);
        EXPECT_DOUBLE_EQ(s1.finish[i], s2.finish[i]);
    }
}

TEST(Scheduler, UtilizationAndIdleFractions)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    const TaskId a = g.addTask(gpu, 1.0, "a");
    g.addTask(cpu, 1.0, "b", {a});
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.makespan, 2.0);
    EXPECT_DOUBLE_EQ(s.busyTime(gpu, 0.0, s.makespan) / s.makespan, 0.5);
    EXPECT_DOUBLE_EQ(s.busyTime(cpu, 0.0, s.makespan) / s.makespan, 0.5);
}

TEST(Scheduler, ManyTasksStress)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId link = g.addResource("link");
    TaskId prev = kInvalidTask;
    double total = 0.0;
    for (int i = 0; i < 5000; ++i) {
        std::vector<TaskId> deps;
        if (prev != kInvalidTask)
            deps.push_back(prev);
        prev = g.addTask(gpu, 0.001, "g", deps);
        g.addTask(link, 0.0005, "l", {prev});
        total += 0.001;
    }
    const Schedule s = Scheduler().run(g);
    // GPU chain dominates; last transfer adds its tail.
    EXPECT_NEAR(s.makespan, total + 0.0005, 1e-9);
}

TEST(Scheduler, EmptyGraph)
{
    TaskGraph g;
    g.addResource("GPU");
    const Schedule s = Scheduler().run(g);
    EXPECT_DOUBLE_EQ(s.makespan, 0.0);
}

TEST(Scheduler, ConcurrentRunsAreIndependentAndIdentical)
{
    // The scheduler must be reentrant: many threads simulating the same
    // graph shape concurrently produce bit-identical schedules.
    auto build = [] {
        TaskGraph g;
        const ResourceId gpu = g.addResource("GPU");
        const ResourceId cpus[] = {
            g.addResource("CPU0"), g.addResource("CPU1"),
            g.addResource("CPU2"), g.addResource("CPU3")};
        const ResourceId link = g.addResource("link");
        TaskId prev = kInvalidTask;
        for (int i = 0; i < 800; ++i) {
            std::vector<TaskId> deps;
            if (prev != kInvalidTask)
                deps.push_back(prev);
            prev = g.addTask(gpu, 0.001 + 0.0001 * (i % 7), "g", deps,
                             i % 3 - 1);
            const TaskId moved =
                g.addTask(link, 0.0004, "d2h", {prev});
            g.addTask(cpus[i % 4], 0.002, "adam", {moved});
        }
        return g;
    };

    const TaskGraph reference_graph = build();
    const Schedule reference = Scheduler().run(reference_graph);

    constexpr int kThreads = 8;
    std::vector<Schedule> results(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const TaskGraph g = build();
            results[t] = Scheduler().run(g);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(results[t].start.size(), reference.start.size());
        EXPECT_EQ(results[t].makespan, reference.makespan);
        EXPECT_EQ(results[t].start, reference.start);
        EXPECT_EQ(results[t].finish, reference.finish);
    }
}

} // namespace
} // namespace so::sim
