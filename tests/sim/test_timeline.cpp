/**
 * @file
 * A resource's timeline in a Schedule: its task order and the busy
 * time Schedule::busyTime reads off it. Small scheduled graphs pin the
 * window arithmetic; random graphs pin the order's invariants and pin
 * busyTime to a copy-sort-merge statement of the union, bit for bit.
 */
#include "sim/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "sim/graph.h"
#include "sim/inspect.h"
#include "sim/profiler.h"
#include "sim/trace.h"

namespace so::sim {
namespace {

TEST(Timeline, EmptyTimeline)
{
    TaskGraph graph;
    const ResourceId gpu = graph.addResource("gpu");
    const Schedule s = Scheduler().run(graph);
    EXPECT_TRUE(s.order[gpu].empty());
    EXPECT_EQ(s.busyTime(gpu, 0.0, 10.0), 0.0);
}

TEST(Timeline, SingleInterval)
{
    // The GPU task runs from 1 to 3 s, behind a CPU task.
    TaskGraph graph;
    const ResourceId cpu = graph.addResource("cpu");
    const ResourceId gpu = graph.addResource("gpu");
    const TaskId a = graph.addTask(cpu, 1.0, "a");
    const TaskId b = graph.addTask(gpu, 2.0, "b", {a});
    const Schedule s = Scheduler().run(graph);
    EXPECT_EQ(s.order[gpu], std::vector<TaskId>{b});
    EXPECT_DOUBLE_EQ(s.busyTime(gpu, 0.0, 10.0), 2.0);
    EXPECT_DOUBLE_EQ(s.busyTime(gpu, 0.0, s.makespan) / s.makespan,
                     2.0 / 3.0);
}

TEST(Timeline, ClampsToWindow)
{
    TaskGraph graph;
    const ResourceId gpu = graph.addResource("gpu");
    graph.addTask(gpu, 10.0, "a");
    const Schedule s = Scheduler().run(graph);
    EXPECT_DOUBLE_EQ(s.busyTime(gpu, 2.0, 5.0), 3.0);
    EXPECT_DOUBLE_EQ(s.busyTime(gpu, -5.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(s.busyTime(gpu, 10.0, 20.0), 0.0);
}

TEST(Timeline, AdjacentIntervalsMerge)
{
    // Two GPU tasks back to back from 0.1 s: the busy time is one
    // segment's length, not the sum of two, which rounds differently
    // for these durations.
    TaskGraph graph;
    const ResourceId cpu = graph.addResource("cpu");
    const ResourceId gpu = graph.addResource("gpu");
    const TaskId lead = graph.addTask(cpu, 0.1, "lead");
    const TaskId a = graph.addTask(gpu, 0.1, "a", {lead});
    const TaskId b = graph.addTask(gpu, 1.1, "b", {a});
    const Schedule s = Scheduler().run(graph);
    ASSERT_EQ(s.order[gpu], (std::vector<TaskId>{a, b}));
    ASSERT_EQ(s.finish[a], s.start[b]);
    const double merged = s.finish[b] - s.start[a];
    const double summed =
        (s.finish[a] - s.start[a]) + (s.finish[b] - s.start[b]);
    ASSERT_NE(merged, summed);
    EXPECT_EQ(s.busyTime(gpu, 0.0, s.makespan), merged);
}

TEST(Timeline, ZeroLengthIntervalIgnored)
{
    TaskGraph graph;
    const ResourceId gpu = graph.addResource("gpu");
    graph.addTask(gpu, 0.0, "barrier");
    const Schedule s = Scheduler().run(graph);
    EXPECT_TRUE(s.order[gpu].empty());
    EXPECT_EQ(s.busyTime(gpu, 0.0, 1.0), 0.0);
}

TEST(Timeline, EmptyWindowReturnsZero)
{
    TaskGraph graph;
    const ResourceId gpu = graph.addResource("gpu");
    graph.addTask(gpu, 1.0, "a");
    const Schedule s = Scheduler().run(graph);
    EXPECT_EQ(s.busyTime(gpu, 5.0, 5.0), 0.0);
    EXPECT_EQ(s.busyTime(gpu, 0.5, 0.5), 0.0);
    EXPECT_EQ(s.busyTime(gpu, 1.0, 0.0), 0.0); // Reversed.
}

/**
 * The window union as a copy, a sort and a merge: the statement of
 * busy time that Schedule::busyTime must reproduce bit for bit.
 */
double
copySortMergeBusy(const std::vector<std::pair<double, double>> &intervals,
                  double begin, double end)
{
    if (end <= begin || intervals.empty())
        return 0.0;
    std::vector<std::pair<double, double>> clipped;
    for (const auto &[start, finish] : intervals) {
        const double s = std::max(start, begin);
        const double e = std::min(finish, end);
        if (e > s)
            clipped.emplace_back(s, e);
    }
    if (clipped.empty())
        return 0.0;
    std::sort(clipped.begin(), clipped.end());
    double busy = 0.0;
    double cur_s = clipped[0].first;
    double cur_e = clipped[0].second;
    for (std::size_t i = 1; i < clipped.size(); ++i) {
        if (clipped[i].first > cur_e) {
            busy += cur_e - cur_s;
            cur_s = clipped[i].first;
            cur_e = clipped[i].second;
        } else {
            cur_e = std::max(cur_e, clipped[i].second);
        }
    }
    busy += cur_e - cur_s;
    return busy;
}

/**
 * A random DAG on 2 to 13 resources whose durations mix a discrete
 * ladder, so tasks share starts and ends exactly, with continuous
 * draws and zero-duration barriers.
 */
TaskGraph
makeLadderGraph(std::uint64_t seed)
{
    Rng rng(seed);
    TaskGraph graph;
    const std::size_t n_resources = 2 + rng.below(12);
    for (std::size_t r = 0; r < n_resources; ++r)
        graph.addResource("R" + std::to_string(r));
    const double ladder[] = {0.0, 0.125, 0.25, 0.25, 1.0};
    const std::size_t n_tasks = 100 + rng.below(300);
    for (std::size_t t = 0; t < n_tasks; ++t) {
        std::vector<TaskId> deps;
        const std::size_t n_deps = t == 0 ? 0 : rng.below(4);
        for (std::size_t d = 0; d < n_deps; ++d)
            deps.push_back(static_cast<TaskId>(rng.below(t)));
        std::sort(deps.begin(), deps.end());
        deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
        const double duration = rng.bernoulli(0.5)
                                    ? ladder[rng.below(5)]
                                    : rng.uniform(0.001, 2.0);
        graph.addTask(static_cast<ResourceId>(rng.below(n_resources)),
                      duration, "t" + std::to_string(t), std::move(deps),
                      static_cast<std::int32_t>(rng.below(5)) - 2);
    }
    return graph;
}

/**
 * Each order[r] holds exactly the tasks bound to r whose finish is
 * past their start, once each, in start order, and one task at a time:
 * each task starts no earlier than the one before it finished, so
 * finishes never decrease either.
 */
void
expectOrderInvariants(const TaskGraph &graph, const Schedule &sched)
{
    ASSERT_EQ(sched.order.size(), graph.resourceCount());
    std::vector<int> seen(graph.taskCount(), 0);
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        const std::vector<TaskId> &tasks = sched.order[r];
        for (std::size_t i = 0; i < tasks.size(); ++i) {
            const TaskId id = tasks[i];
            ASSERT_LT(id, graph.taskCount());
            EXPECT_EQ(graph.taskResource(id), r) << "task " << id;
            ++seen[id];
            if (i == 0)
                continue;
            const TaskId prev = tasks[i - 1];
            EXPECT_LT(sched.start[prev], sched.start[id])
                << "resource " << r << " at " << i;
            EXPECT_LE(sched.finish[prev], sched.start[id])
                << "resource " << r << " at " << i;
            EXPECT_LE(sched.finish[prev], sched.finish[id])
                << "resource " << r << " at " << i;
        }
    }
    for (TaskId id = 0; id < graph.taskCount(); ++id)
        EXPECT_EQ(seen[id], sched.finish[id] > sched.start[id] ? 1 : 0)
            << "task " << id;
}

class ScheduleOrder : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ScheduleOrder, HoldsEachTaskThatHeldItsResourceInStartOrder)
{
    const TaskGraph graph = makeLadderGraph(GetParam());
    expectOrderInvariants(graph, Scheduler().run(graph));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleOrder,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

TEST(ScheduleOrder, ZeroDurationAndAbsorbedTasksHoldNothing)
{
    // On the GPU, a barrier of zero duration and a task whose 1e-17 s
    // vanish against a 1-s start time sit between two real tasks.
    TaskGraph graph;
    const ResourceId gpu = graph.addResource("gpu");
    const ResourceId cpu = graph.addResource("cpu");
    const TaskId warm = graph.addTask(gpu, 1.0, "warm");
    const TaskId barrier = graph.addTask(gpu, 0.0, "barrier", {warm});
    const TaskId absorbed =
        graph.addTask(gpu, 1e-17, "absorbed", {barrier});
    const TaskId after = graph.addTask(gpu, 0.5, "after", {absorbed});
    const TaskId side = graph.addTask(cpu, 0.25, "side", {barrier});
    const Schedule sched = Scheduler().run(graph);
    ASSERT_GT(graph.duration(absorbed), 0.0);
    ASSERT_EQ(sched.start[absorbed], 1.0);
    ASSERT_EQ(sched.finish[absorbed], sched.start[absorbed]);

    expectOrderInvariants(graph, sched);
    EXPECT_EQ(sched.order[gpu], (std::vector<TaskId>{warm, after}));
    EXPECT_EQ(sched.order[cpu], std::vector<TaskId>{side});
    EXPECT_EQ(sched.busyTime(gpu, 0.0, sched.makespan), 1.5);

    // Neither appears as a Chrome trace event...
    const ScheduleProfile prof = profileSchedule(graph, sched);
    JsonValue trace;
    ASSERT_TRUE(
        JsonValue::parse(toChromeTrace(graph, sched, &prof), trace));
    std::vector<std::string> events;
    for (const JsonValue &event : trace.at("traceEvents").items())
        if (event.at("ph").text() == "X")
            events.push_back(event.at("name").text());
    EXPECT_EQ(events, (std::vector<std::string>{"warm", "after", "side"}));

    // ...nor as a bundle span.
    const std::string path =
        ::testing::TempDir() + "order_absorbed.bundle.jsonl";
    ASSERT_TRUE(writeBundleShards(path, graph, sched, prof));
    std::ifstream in(path);
    std::vector<TaskId> spans;
    for (std::string line; std::getline(in, line);) {
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(line, doc)) << line;
        if (doc.at("kind").text() != "bundle_tasks")
            continue;
        for (const JsonValue &span : doc.at("tasks").items())
            spans.push_back(static_cast<TaskId>(span.at("id").number()));
    }
    EXPECT_EQ(spans, (std::vector<TaskId>{warm, after, side}));
}

class TimelineBusyPin : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TimelineBusyPin, SchedulerTimelinesMatchCopySortMerge)
{
    const TaskGraph graph = makeLadderGraph(GetParam());
    const Schedule sched = Scheduler().run(graph);
    ASSERT_GT(sched.makespan, 0.0);
    Rng rng(GetParam() + 1000);

    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        // The oracle's input comes from the graph, not the order: every
        // task bound to r, zero-length ones included.
        std::vector<std::pair<double, double>> intervals;
        for (TaskId id = 0; id < graph.taskCount(); ++id)
            if (graph.taskResource(id) == r)
                intervals.emplace_back(sched.start[id], sched.finish[id]);

        // The whole makespan, windows that clip tasks (random interior
        // points and exact task edges), windows that reach past either
        // end, and empty or reversed windows.
        std::vector<std::pair<double, double>> windows = {
            {0.0, sched.makespan},
            {0.25 * sched.makespan, 0.75 * sched.makespan},
            {-1.0, 0.5 * sched.makespan},
            {0.5 * sched.makespan, sched.makespan + 1.0},
            {sched.makespan, sched.makespan + 1.0},
            {0.0, 0.0},
            {0.5 * sched.makespan, 0.5 * sched.makespan},
            {sched.makespan, 0.0},
        };
        for (int k = 0; k < 8; ++k) {
            double a = rng.uniform(0.0, sched.makespan);
            double b = rng.uniform(0.0, sched.makespan);
            if (a > b)
                std::swap(a, b);
            windows.emplace_back(a, b);
        }
        for (int k = 0; k < 8 && !intervals.empty(); ++k) {
            const auto &x = intervals[rng.below(intervals.size())];
            const auto &y = intervals[rng.below(intervals.size())];
            windows.emplace_back(std::min(x.first, y.second),
                                 std::max(x.first, y.second));
            windows.emplace_back(x.second, x.second);
        }

        for (const auto &[begin, end] : windows)
            EXPECT_EQ(sched.busyTime(r, begin, end),
                      copySortMergeBusy(intervals, begin, end))
                << "resource " << r << " window [" << begin << ", "
                << end << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineBusyPin,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace so::sim
