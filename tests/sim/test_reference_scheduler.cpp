/**
 * @file
 * Differential tests: the optimized discrete-event scheduler against
 * the naive O(V·E) reference implementation. Both claim the same
 * deterministic list-scheduling semantics, so on any DAG the schedules
 * must agree bit for bit — start/finish times, makespan, and every
 * resource's task order.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "reference_scheduler.h"
#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {
namespace {

void
expectBitIdentical(const TaskGraph &graph, const Schedule &got,
                   const Schedule &want)
{
    ASSERT_EQ(got.start.size(), want.start.size());
    for (TaskId id = 0; id < graph.taskCount(); ++id) {
        ASSERT_EQ(got.start[id], want.start[id]) << "task " << id;
        ASSERT_EQ(got.finish[id], want.finish[id]) << "task " << id;
    }
    ASSERT_EQ(got.makespan, want.makespan);
    ASSERT_EQ(got.order.size(), want.order.size());
    // Both implementations append a resource's tasks in start order.
    for (ResourceId r = 0; r < graph.resourceCount(); ++r)
        ASSERT_EQ(got.order[r], want.order[r]) << "resource " << r;
}

/**
 * Random DAG tuned to stress tie-breaking: durations come from a small
 * discrete set so many tasks finish at exactly the same instant, and
 * priorities collide constantly.
 */
TaskGraph
makeAdversarialGraph(std::uint64_t seed, std::size_t n_resources,
                     std::size_t n_tasks)
{
    Rng rng(seed);
    TaskGraph graph;
    for (std::size_t r = 0; r < n_resources; ++r)
        graph.addResource("R" + std::to_string(r));
    // Discrete durations force mass-equal completion timestamps.
    const double durations[] = {0.0, 0.25, 0.25, 0.5, 1.0};
    for (std::size_t t = 0; t < n_tasks; ++t) {
        std::vector<TaskId> deps;
        const std::size_t n_deps = t == 0 ? 0 : rng.below(4);
        for (std::size_t d = 0; d < n_deps; ++d)
            deps.push_back(static_cast<TaskId>(rng.below(t)));
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        graph.addTask(static_cast<ResourceId>(rng.below(n_resources)),
                      durations[rng.below(5)], "t" + std::to_string(t),
                      std::move(deps),
                      static_cast<std::int32_t>(rng.below(3)) - 1);
    }
    return graph;
}

/**
 * Layers of tasks between zero-duration barriers over @p n_resources
 * resources. Every task of a layer waits on the barrier before it (a
 * few also on an earlier task of the same layer), so a layer's tasks
 * become ready at one instant; each draws one of three layer-wide
 * durations from @p ladder, so dozens of completions land on the same
 * timestamp.
 */
TaskGraph
makeBarrierLayers(std::uint64_t seed, std::size_t n_resources,
                  const std::vector<double> &ladder, std::size_t layers,
                  std::size_t max_width)
{
    Rng rng(seed);
    TaskGraph graph;
    for (std::size_t r = 0; r < n_resources; ++r)
        graph.addResource("R" + std::to_string(r));
    const auto resource = [&] {
        return static_cast<ResourceId>(rng.below(n_resources));
    };
    TaskId barrier = graph.addTask(resource(), 0.0, "barrier");
    for (std::size_t layer = 0; layer < layers; ++layer) {
        const double picks[] = {ladder[rng.below(ladder.size())],
                                ladder[rng.below(ladder.size())],
                                rng.bernoulli(0.5)
                                    ? 0.0
                                    : ladder[rng.below(ladder.size())]};
        const std::size_t width = 1 + rng.below(max_width);
        std::vector<TaskId> members;
        for (std::size_t i = 0; i < width; ++i) {
            std::vector<TaskId> deps{barrier};
            if (!members.empty() && rng.bernoulli(0.1))
                deps.push_back(members[rng.below(members.size())]);
            members.push_back(graph.addTask(
                resource(), picks[rng.below(3)],
                "l" + std::to_string(layer) + "." + std::to_string(i),
                std::move(deps),
                static_cast<std::int32_t>(rng.below(3)) - 1));
        }
        barrier = graph.addTask(resource(), 0.0, "barrier",
                                std::move(members));
    }
    return graph;
}

class DifferentialTest
    : public ::testing::TestWithParam<std::uint64_t> // seed
{
};

TEST_P(DifferentialTest, RandomDagsMatchReference)
{
    const TaskGraph graph = makeAdversarialGraph(GetParam(), 8, 250);
    expectBitIdentical(graph, Scheduler().run(graph),
                       testing::referenceSchedule(graph));
}

TEST_P(DifferentialTest, ContinuousDurationsMatchReference)
{
    // Same generator family as the property tests: continuous durations
    // plus zero-duration barriers.
    Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 1);
    TaskGraph graph;
    const std::size_t n_resources = 1 + rng.below(12);
    for (std::size_t r = 0; r < n_resources; ++r)
        graph.addResource("R" + std::to_string(r));
    const std::size_t n_tasks = 50 + rng.below(250);
    for (std::size_t t = 0; t < n_tasks; ++t) {
        std::vector<TaskId> deps;
        const std::size_t n_deps = t == 0 ? 0 : rng.below(5);
        for (std::size_t d = 0; d < n_deps; ++d)
            deps.push_back(static_cast<TaskId>(rng.below(t)));
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        graph.addTask(static_cast<ResourceId>(rng.below(n_resources)),
                      rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.001, 2.0),
                      "t" + std::to_string(t), std::move(deps),
                      static_cast<std::int32_t>(rng.below(7)) - 3);
    }
    expectBitIdentical(graph, Scheduler().run(graph),
                       testing::referenceSchedule(graph));
}

TEST_P(DifferentialTest, WorkspaceReuseMatchesReference)
{
    // The sweep hot path (one Workspace across many graphs) must agree
    // with the oracle too, not just with a fresh-workspace run.
    Scheduler::Workspace ws;
    for (std::uint64_t salt = 0; salt < 3; ++salt) {
        const TaskGraph graph = makeAdversarialGraph(
            GetParam() ^ (salt * 0x517cc1b727220a95ull), 6, 150);
        expectBitIdentical(graph, Scheduler().run(graph, ws),
                           testing::referenceSchedule(graph));
    }
}

TEST_P(DifferentialTest, RecycledScheduleMatchesReference)
{
    // The output-recycling overload writes into a Schedule that still
    // holds a previous (differently sized) graph's results; no stale
    // order entry, time, or makespan may leak through.
    Scheduler::Workspace ws;
    Schedule recycled;
    const std::size_t sizes[] = {180, 40, 220};
    for (std::uint64_t salt = 0; salt < 3; ++salt) {
        const TaskGraph graph = makeAdversarialGraph(
            GetParam() ^ (salt * 0x2545f4914f6cdd1dull), 6,
            sizes[salt]);
        Scheduler().run(graph, ws, recycled);
        expectBitIdentical(graph, recycled,
                           testing::referenceSchedule(graph));
    }
}

TEST_P(DifferentialTest, DurationsSpanningTwelveDecadesMatchReference)
{
    // Durations from 1e-9 to 1e3 s in one graph: a nanosecond task and
    // a kilosecond one may be pending together, alongside mass-equal
    // completions and zero-duration barriers.
    std::vector<double> ladder;
    for (double decade = 1e-9; decade <= 1.01e3; decade *= 10.0)
        for (int k = 1; k <= 4; ++k)
            ladder.push_back(decade * k);
    const TaskGraph graph = makeBarrierLayers(
        GetParam() * 0xd1b54a32d192ed03ull + 5, 10, ladder, 24, 24);
    expectBitIdentical(graph, Scheduler().run(graph),
                       testing::referenceSchedule(graph));
}

TEST_P(DifferentialTest, SixtyFourSlotResourceMatchesReference)
{
    // Layers up to 160 tasks wide spread over 64 resources behind
    // shared barrier roots, so dozens of completion events are pending
    // at once, many on one timestamp.
    const TaskGraph graph = makeBarrierLayers(
        GetParam() * 0x94d049bb133111ebull + 3, 64,
        {0.125, 0.25, 0.5, 1.0, 0.75}, 12, 160);
    const Schedule sched = Scheduler().run(graph);
    expectBitIdentical(graph, sched, testing::referenceSchedule(graph));

    // The most tasks running at one instant, each one a pending
    // completion event: the input must really hold dozens at once.
    std::vector<TaskId> running;
    for (const std::vector<TaskId> &tasks : sched.order)
        running.insert(running.end(), tasks.begin(), tasks.end());
    std::size_t peak = 0;
    for (const TaskId at : running)
        peak = std::max(peak, static_cast<std::size_t>(std::count_if(
                                  running.begin(), running.end(),
                                  [&](TaskId id) {
                                      return sched.start[id] <=
                                                 sched.start[at] &&
                                             sched.start[at] <
                                                 sched.finish[id];
                                  })));
    EXPECT_GE(peak, 40u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u, 144u, 233u));

TEST(DifferentialEdgeCases, EmptyGraph)
{
    TaskGraph graph;
    graph.addResource("gpu");
    expectBitIdentical(graph, Scheduler().run(graph),
                       testing::referenceSchedule(graph));
    EXPECT_EQ(Scheduler().run(graph).makespan, 0.0);
}

TEST(DifferentialEdgeCases, AllZeroDurations)
{
    // Pure barrier cascade: everything starts and finishes at t=0.
    TaskGraph graph;
    graph.addResource("gpu");
    TaskId prev = kInvalidTask;
    for (int i = 0; i < 40; ++i) {
        std::vector<TaskId> deps;
        if (prev != kInvalidTask)
            deps.push_back(prev);
        prev = graph.addTask(0, 0.0, "z" + std::to_string(i),
                             std::move(deps));
    }
    expectBitIdentical(graph, Scheduler().run(graph),
                       testing::referenceSchedule(graph));
    EXPECT_EQ(Scheduler().run(graph).makespan, 0.0);
}

TEST(DifferentialEdgeCases, SingleChainMakespanIsSum)
{
    TaskGraph graph;
    graph.addResource("gpu");
    graph.addResource("cpu");
    TaskId prev = kInvalidTask;
    double total = 0.0;
    for (int i = 0; i < 64; ++i) {
        std::vector<TaskId> deps;
        if (prev != kInvalidTask)
            deps.push_back(prev);
        const double d = 0.125 * (1 + i % 4);
        total += d;
        // The chain alternates resources: each link still waits for
        // the one before it.
        prev = graph.addTask(static_cast<ResourceId>(i % 2), d,
                             "c" + std::to_string(i), std::move(deps));
    }
    const Schedule sched = Scheduler().run(graph);
    expectBitIdentical(graph, sched, testing::referenceSchedule(graph));
    EXPECT_DOUBLE_EQ(sched.makespan, total);
}

TEST(DifferentialEdgeCases, WideFanOutManyPriorityTies)
{
    // One root, 300 children all ready at once on two resources, only
    // two distinct priorities on each: the (priority, id) tie-break
    // does all the work.
    TaskGraph graph;
    graph.addResource("gpu");
    graph.addResource("cpu");
    const TaskId root = graph.addTask(0, 0.5, "root");
    for (int i = 0; i < 300; ++i)
        graph.addTask(static_cast<ResourceId>(i / 2 % 2), 0.25,
                      "f" + std::to_string(i), {root},
                      i % 2 == 0 ? 1 : -1);
    expectBitIdentical(graph, Scheduler().run(graph),
                       testing::referenceSchedule(graph));
}

} // namespace
} // namespace so::sim
