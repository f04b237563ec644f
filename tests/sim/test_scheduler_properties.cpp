/**
 * @file
 * Property-based tests of the discrete-event scheduler over randomly
 * generated DAGs: every schedule it emits must satisfy the defining
 * invariants regardless of graph shape.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {
namespace {

TaskGraph
makeRandomGraph(std::uint64_t seed, std::size_t n_resources,
                std::size_t n_tasks)
{
    Rng rng(seed);
    TaskGraph graph;
    for (std::size_t r = 0; r < n_resources; ++r)
        graph.addResource("R" + std::to_string(r));
    for (std::size_t t = 0; t < n_tasks; ++t) {
        std::vector<TaskId> deps;
        // Up to 3 backward dependencies.
        const std::size_t n_deps = t == 0 ? 0 : rng.below(4);
        for (std::size_t d = 0; d < n_deps; ++d)
            deps.push_back(static_cast<TaskId>(rng.below(t)));
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        const auto resource =
            static_cast<ResourceId>(rng.below(n_resources));
        // Mix zero-duration barriers in.
        const double duration =
            rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.01, 1.0);
        const auto priority =
            static_cast<std::int32_t>(rng.below(5)) - 2;
        graph.addTask(resource, duration, "t" + std::to_string(t),
                      std::move(deps), priority);
    }
    return graph;
}

class SchedulerPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> // seed
{
};

TEST_P(SchedulerPropertyTest, ScheduleSatisfiesAllInvariants)
{
    const TaskGraph graph = makeRandomGraph(GetParam(), 8, 200);
    const Schedule sched = Scheduler().run(graph);

    double latest_finish = 0.0;
    for (TaskId id = 0; id < graph.taskCount(); ++id) {
        // Duration honored.
        ASSERT_NEAR(sched.finish[id] - sched.start[id],
                    graph.duration(id), 1e-12);
        ASSERT_GE(sched.start[id], 0.0);
        latest_finish = std::max(latest_finish, sched.finish[id]);
        // Dependencies strictly precede.
        for (TaskId dep : graph.deps(id))
            ASSERT_GE(sched.start[id], sched.finish[dep] - 1e-12)
                << "task " << id << " started before dep " << dep;
    }
    // Makespan is exactly the last finish.
    ASSERT_NEAR(sched.makespan, latest_finish, 1e-12);

    // A resource runs one task at a time: no two of its tasks overlap,
    // whatever order they were recorded in.
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        std::vector<std::pair<double, double>> intervals;
        for (const TaskId id : sched.order[r])
            intervals.emplace_back(sched.start[id], sched.finish[id]);
        std::sort(intervals.begin(), intervals.end());
        for (std::size_t i = 1; i < intervals.size(); ++i)
            ASSERT_LE(intervals[i - 1].second, intervals[i].first + 1e-12)
                << "resource " << r << " runs two tasks at once";
    }

    // Work conservation: each resource's busy time equals the summed
    // durations of the tasks bound to it.
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        ASSERT_NEAR(sched.busyTime(r, 0.0, sched.makespan),
                    graph.totalWork(r), 1e-9);
    }
}

TEST_P(SchedulerPropertyTest, SharedWorkspaceIsBitwiseIdentical)
{
    // Reusing one workspace across many runs (the sweep hot path) must
    // not leak state between graphs: results match fresh-workspace runs
    // bit for bit.
    Scheduler::Workspace ws;
    for (std::uint64_t salt = 0; salt < 4; ++salt) {
        const TaskGraph graph =
            makeRandomGraph(GetParam() ^ (salt * 0x9e3779b9), 8, 150);
        const Schedule fresh = Scheduler().run(graph);
        const Schedule reused = Scheduler().run(graph, ws);
        ASSERT_EQ(fresh.start.size(), reused.start.size());
        for (std::size_t i = 0; i < fresh.start.size(); ++i) {
            ASSERT_EQ(fresh.start[i], reused.start[i]);
            ASSERT_EQ(fresh.finish[i], reused.finish[i]);
        }
        ASSERT_EQ(fresh.order, reused.order);
    }
}

TEST_P(SchedulerPropertyTest, ReRunIsBitwiseIdentical)
{
    const TaskGraph graph = makeRandomGraph(GetParam() ^ 0xabcd, 6, 120);
    const Schedule a = Scheduler().run(graph);
    const Schedule b = Scheduler().run(graph);
    for (std::size_t i = 0; i < a.start.size(); ++i) {
        ASSERT_EQ(a.start[i], b.start[i]);
        ASSERT_EQ(a.finish[i], b.finish[i]);
    }
}

TEST_P(SchedulerPropertyTest, MakespanAtLeastCriticalPath)
{
    const TaskGraph graph = makeRandomGraph(GetParam() ^ 0x1234, 10, 150);
    const Schedule sched = Scheduler().run(graph);
    // Longest dependency chain is a lower bound on the makespan.
    std::vector<double> chain(graph.taskCount(), 0.0);
    double critical = 0.0;
    for (TaskId id = 0; id < graph.taskCount(); ++id) {
        double ready = 0.0;
        for (TaskId dep : graph.deps(id))
            ready = std::max(ready, chain[dep]);
        chain[id] = ready + graph.duration(id);
        critical = std::max(critical, chain[id]);
    }
    EXPECT_GE(sched.makespan + 1e-12, critical);
    // And no worse than fully serial execution.
    double total = 0.0;
    for (TaskId id = 0; id < graph.taskCount(); ++id)
        total += graph.duration(id);
    EXPECT_LE(sched.makespan, total + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

} // namespace
} // namespace so::sim
