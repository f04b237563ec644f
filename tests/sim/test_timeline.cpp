#include "sim/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {
namespace {

TEST(Timeline, EmptyTimeline)
{
    Timeline t;
    EXPECT_TRUE(t.empty());
    EXPECT_DOUBLE_EQ(t.busyTime(0.0, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(t.idleTime(0.0, 10.0), 10.0);
    EXPECT_DOUBLE_EQ(t.utilization(0.0, 10.0), 0.0);
}

TEST(Timeline, SingleInterval)
{
    Timeline t;
    t.add(1.0, 3.0, 0);
    EXPECT_DOUBLE_EQ(t.busyTime(0.0, 10.0), 2.0);
    EXPECT_DOUBLE_EQ(t.idleTime(0.0, 10.0), 8.0);
    EXPECT_DOUBLE_EQ(t.utilization(0.0, 10.0), 0.2);
}

TEST(Timeline, ClampsToWindow)
{
    Timeline t;
    t.add(0.0, 10.0, 0);
    EXPECT_DOUBLE_EQ(t.busyTime(2.0, 5.0), 3.0);
    EXPECT_DOUBLE_EQ(t.busyTime(-5.0, 2.0), 2.0);
    EXPECT_DOUBLE_EQ(t.busyTime(10.0, 20.0), 0.0);
}

TEST(Timeline, OverlappingIntervalsCountOnce)
{
    Timeline t;
    t.add(0.0, 4.0, 0);
    t.add(2.0, 6.0, 1); // Overlaps the first.
    EXPECT_DOUBLE_EQ(t.busyTime(0.0, 10.0), 6.0);
}

TEST(Timeline, DisjointIntervals)
{
    Timeline t;
    t.add(0.0, 1.0, 0);
    t.add(5.0, 6.0, 1);
    t.add(2.0, 3.0, 2); // Out of order insertion is fine.
    EXPECT_DOUBLE_EQ(t.busyTime(0.0, 10.0), 3.0);
}

TEST(Timeline, AdjacentIntervalsMerge)
{
    Timeline t;
    t.add(0.0, 1.0, 0);
    t.add(1.0, 2.0, 1);
    EXPECT_DOUBLE_EQ(t.busyTime(0.0, 2.0), 2.0);
}

TEST(Timeline, ZeroLengthIntervalIgnored)
{
    Timeline t;
    t.add(1.0, 1.0, 0);
    EXPECT_TRUE(t.empty());
}

TEST(Timeline, EmptyWindowReturnsZero)
{
    Timeline t;
    t.add(0.0, 1.0, 0);
    EXPECT_DOUBLE_EQ(t.busyTime(5.0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(t.utilization(5.0, 5.0), 0.0);
}

TEST(TimelineDeath, RejectsBackwardsInterval)
{
    Timeline t;
    EXPECT_DEATH(t.add(2.0, 1.0, 0), "ends before");
}

/**
 * The window union as a copy, a sort and a merge: the statement of
 * busy time that Timeline::busyTime must reproduce bit for bit,
 * whatever order its intervals were added in.
 */
double
copySortMergeBusy(const std::vector<Interval> &intervals, double begin,
                  double end)
{
    if (end <= begin || intervals.empty())
        return 0.0;
    std::vector<std::pair<double, double>> clipped;
    for (const Interval &iv : intervals) {
        const double s = std::max(iv.start, begin);
        const double e = std::min(iv.end, end);
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

/** busyTime, idleTime and utilization equal the copy-sort-merge rule. */
void
expectMatchesCopySortMerge(const Timeline &timeline,
                           const std::vector<Interval> &intervals,
                           double begin, double end)
{
    const double busy = copySortMergeBusy(intervals, begin, end);
    const double idle = end <= begin ? 0.0 : (end - begin) - busy;
    const double util = end <= begin ? 0.0 : busy / (end - begin);
    EXPECT_EQ(timeline.busyTime(begin, end), busy)
        << "window [" << begin << ", " << end << ")";
    EXPECT_EQ(timeline.idleTime(begin, end), idle)
        << "window [" << begin << ", " << end << ")";
    EXPECT_EQ(timeline.utilization(begin, end), util)
        << "window [" << begin << ", " << end << ")";
}

/**
 * A random DAG on 2 to 13 resources whose durations mix a discrete
 * ladder, so intervals share starts and ends exactly, with continuous
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

class TimelineBusyPin : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TimelineBusyPin, SchedulerTimelinesMatchCopySortMerge)
{
    const TaskGraph graph = makeLadderGraph(GetParam());
    const Schedule sched = Scheduler().run(graph);
    ASSERT_GT(sched.makespan, 0.0);
    Rng rng(GetParam() + 1000);

    // Each resource's timeline, plus one timeline filled by hand with
    // every resource's intervals in start order: the resources run
    // concurrently, so its intervals overlap.
    std::vector<Interval> every;
    for (const Timeline &timeline : sched.timelines)
        every.insert(every.end(), timeline.intervals().begin(),
                     timeline.intervals().end());
    std::stable_sort(every.begin(), every.end(),
                     [](const Interval &a, const Interval &b) {
                         return a.start < b.start;
                     });
    Timeline overlapping;
    for (const Interval &iv : every)
        overlapping.add(iv.start, iv.end, iv.task);
    std::vector<const Timeline *> timelines;
    for (const Timeline &timeline : sched.timelines)
        timelines.push_back(&timeline);
    timelines.push_back(&overlapping);

    for (std::size_t r = 0; r < timelines.size(); ++r) {
        const Timeline &timeline = *timelines[r];
        const std::vector<Interval> &intervals = timeline.intervals();

        // The scheduler appends every interval at the current event
        // time, so each timeline it builds is in start order.
        EXPECT_TRUE(std::is_sorted(intervals.begin(), intervals.end(),
                                   [](const Interval &a,
                                      const Interval &b) {
                                       return a.start < b.start;
                                   }))
            << "timeline " << r;

        // The same intervals added in shuffled order.
        std::vector<Interval> shuffled = intervals;
        for (std::size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
        Timeline readded;
        for (const Interval &iv : shuffled)
            readded.add(iv.start, iv.end, iv.task);

        // The whole makespan, windows that clip intervals (random
        // interior points and exact interval edges), windows that reach
        // past either end, and empty or reversed windows.
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
            const Interval &x = intervals[rng.below(intervals.size())];
            const Interval &y = intervals[rng.below(intervals.size())];
            windows.emplace_back(std::min(x.start, y.end),
                                 std::max(x.start, y.end));
            windows.emplace_back(x.end, x.end);
        }

        for (const auto &[begin, end] : windows) {
            expectMatchesCopySortMerge(timeline, intervals, begin, end);
            expectMatchesCopySortMerge(readded, shuffled, begin, end);
        }

        // Cleared and refilled in start order, the same timeline object
        // still reports the same union.
        readded.clear();
        for (const Interval &iv : intervals)
            readded.add(iv.start, iv.end, iv.task);
        for (const auto &[begin, end] : windows)
            expectMatchesCopySortMerge(readded, intervals, begin, end);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimelineBusyPin,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

} // namespace
} // namespace so::sim
