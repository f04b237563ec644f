/**
 * @file
 * Schedule-profiler invariant tests: the critical path is a contiguous
 * chain whose length equals the makespan, slack is zero exactly on the
 * path and positive off it, per-resource idle gaps agree with
 * the schedule's idle time and the three idle causes partition each
 * resource's idle time — including on a SuperOffload-shaped offloading
 * pipeline. The JSON/trace exports round-trip through the common JSON
 * parser.
 */
#include "sim/profiler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "sim/graph.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace so::sim {
namespace {

/**
 * A miniature SuperOffload iteration: forward + backward layer chains
 * on the GPU, per-layer gradient buckets draining over D2H into a CPU
 * Adam step, updated parameters returning over H2D, and a final GPU
 * cast gated on every returned bucket — the shape whose idle structure
 * the profiler exists to explain.
 */
TaskGraph
superOffloadLikeGraph(std::uint32_t layers = 5)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    const ResourceId h2d = g.addResource("H2D");
    const ResourceId d2h = g.addResource("D2H");

    std::vector<TaskId> fwd, bwd;
    for (std::uint32_t l = 0; l < layers; ++l) {
        std::vector<TaskId> deps;
        if (l > 0)
            deps.push_back(fwd.back());
        fwd.push_back(g.addTask(gpu, 0.010, "fwd L" + std::to_string(l),
                                std::move(deps)));
    }
    for (std::uint32_t l = layers; l-- > 0;) {
        std::vector<TaskId> deps{bwd.empty() ? fwd.back() : bwd.back()};
        bwd.push_back(g.addTask(gpu, 0.020, "bwd L" + std::to_string(l),
                                std::move(deps)));
    }
    std::vector<TaskId> returns;
    for (std::uint32_t l = 0; l < layers; ++l) {
        const TaskId grad = g.addTask(
            d2h, 0.008, "d2h bucket " + std::to_string(l), {bwd[l]});
        const TaskId adam = g.addTask(
            cpu, 0.015, "adam bucket " + std::to_string(l), {grad});
        returns.push_back(g.addTask(
            h2d, 0.008, "h2d bucket " + std::to_string(l), {adam}));
    }
    g.addTask(gpu, 0.004, "cast params", returns);
    return g;
}

void
expectProfileInvariants(const TaskGraph &g, const Schedule &s)
{
    const ScheduleProfile prof = profileSchedule(g, s);

    // Critical-path length reproduces the makespan.
    EXPECT_NEAR(prof.critical_length, s.makespan, 1e-9);
    ASSERT_FALSE(prof.critical_path.empty());

    // The chain is contiguous: starts at 0, each start coincides with
    // the previous finish, and it ends at the last finish.
    EXPECT_DOUBLE_EQ(s.start[prof.critical_path.front().task], 0.0);
    EXPECT_EQ(prof.critical_path.front().link, CriticalLink::Start);
    for (std::size_t i = 1; i < prof.critical_path.size(); ++i) {
        const TaskId prev = prof.critical_path[i - 1].task;
        const TaskId cur = prof.critical_path[i].task;
        EXPECT_NEAR(s.finish[prev], s.start[cur], 1e-12);
        EXPECT_NE(prof.critical_path[i].link, CriticalLink::Start);
    }
    EXPECT_NEAR(s.finish[prof.critical_path.back().task], s.makespan,
                1e-12);

    // Critical-path tasks have zero slack.
    for (const CriticalStep &step : prof.critical_path)
        EXPECT_NEAR(prof.slack[step.task], 0.0, 1e-9);

    // Per resource: gaps agree with the schedule's own busy
    // accounting, and the three causes partition the idle time.
    ASSERT_EQ(prof.resources.size(), g.resourceCount());
    for (ResourceId r = 0; r < g.resourceCount(); ++r) {
        const ResourceProfile &rp = prof.resources[r];
        EXPECT_NEAR(rp.idle, s.makespan - s.busyTime(r, 0.0, s.makespan),
                    1e-9);
        EXPECT_NEAR(rp.busy + rp.idle, s.makespan, 1e-9);
        EXPECT_NEAR(rp.idle_dependency + rp.idle_contention +
                        rp.idle_tail,
                    rp.idle, 1e-12);
        double gap_total = 0.0;
        for (const IdleGap &gap : prof.gaps[r]) {
            EXPECT_GT(gap.end, gap.begin);
            gap_total += gap.length();
        }
        EXPECT_NEAR(gap_total, rp.idle, 1e-12);
    }
}

TEST(Profiler, ChainCriticalPathCoversEverything)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const TaskId a = g.addTask(gpu, 1.0, "a");
    const TaskId b = g.addTask(gpu, 2.0, "b", {a});
    g.addTask(gpu, 3.0, "c", {b});
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    EXPECT_DOUBLE_EQ(prof.critical_length, 6.0);
    ASSERT_EQ(prof.critical_path.size(), 3u);
    EXPECT_EQ(prof.critical_path[0].task, a);
    EXPECT_EQ(prof.critical_path[2].task, 2u);
    for (double sl : prof.slack)
        EXPECT_DOUBLE_EQ(sl, 0.0);
    expectProfileInvariants(g, s);
}

TEST(Profiler, DiamondOffPathTaskHasSlack)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    const TaskId a = g.addTask(gpu, 1.0, "a");
    const TaskId fast = g.addTask(cpu, 0.5, "fast", {a});
    const TaskId slow = g.addTask(gpu, 2.0, "slow", {a});
    g.addTask(gpu, 1.0, "join", {fast, slow});
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    // The fast branch could slip until the slow branch finishes.
    EXPECT_DOUBLE_EQ(prof.slack[fast], 1.5);
    EXPECT_DOUBLE_EQ(prof.slack[slow], 0.0);
    EXPECT_DOUBLE_EQ(prof.slack[a], 0.0);
    expectProfileInvariants(g, s);
}

TEST(Profiler, ResourceLinkAppearsWhenSlotHandsOff)
{
    // Two independent tasks serialize on one GPU slot; the second is
    // on the critical path via a Resource link, not a Dependency link.
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    g.addTask(gpu, 1.0, "first");
    const TaskId second = g.addTask(gpu, 2.0, "second");
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    ASSERT_EQ(prof.critical_path.size(), 2u);
    EXPECT_EQ(prof.critical_path[1].task, second);
    EXPECT_EQ(prof.critical_path[1].link, CriticalLink::Resource);
    expectProfileInvariants(g, s);
}

TEST(Profiler, IdleCauseDependencyWait)
{
    // CPU waits for a GPU producer that ran unobstructed: the CPU's
    // leading gap is dependency-wait; its trailing gap is tail.
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    const TaskId produce = g.addTask(gpu, 2.0, "produce");
    g.addTask(cpu, 1.0, "consume", {produce});
    g.addTask(gpu, 3.0, "more gpu", {produce});
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const std::vector<IdleGap> &cpu_gaps = prof.gaps[cpu];
    ASSERT_EQ(cpu_gaps.size(), 2u);
    EXPECT_EQ(cpu_gaps[0].cause, IdleCause::DependencyWait);
    EXPECT_DOUBLE_EQ(cpu_gaps[0].length(), 2.0);
    EXPECT_EQ(cpu_gaps[1].cause, IdleCause::Tail);
    EXPECT_DOUBLE_EQ(cpu_gaps[1].length(), 2.0);
    expectProfileInvariants(g, s);
}

TEST(Profiler, IdleCauseResourceContention)
{
    // The consumer's producer was ready at t=0 but queued behind
    // another GPU task: the consumer-side gap is contention, not
    // dependency-wait.
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    g.addTask(gpu, 1.0, "other work");
    const TaskId produce = g.addTask(gpu, 1.0, "produce");
    g.addTask(cpu, 0.5, "consume", {produce});
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    ASSERT_FALSE(prof.gaps[cpu].empty());
    EXPECT_EQ(prof.gaps[cpu][0].cause,
              IdleCause::ResourceContention);
    EXPECT_GT(prof.resources[cpu].idle_contention, 0.0);
    expectProfileInvariants(g, s);
}

TEST(Profiler, NeverUsedResourceIsAllTail)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId spare = g.addResource("NVMe");
    g.addTask(gpu, 1.0, "work");
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    EXPECT_DOUBLE_EQ(prof.resources[spare].idle_tail, 1.0);
    EXPECT_DOUBLE_EQ(prof.resources[spare].busy, 0.0);
    expectProfileInvariants(g, s);
}

TEST(Profiler, SuperOffloadShapedScheduleInvariants)
{
    const TaskGraph g = superOffloadLikeGraph();
    const Schedule s = Scheduler().run(g);
    expectProfileInvariants(g, s);
    const ScheduleProfile prof = profileSchedule(g, s);
    // The offload pipeline spans several resources: the path must
    // leave the GPU (D2H/CPU/H2D tasks on it).
    bool off_gpu = false;
    for (const CriticalStep &step : prof.critical_path)
        off_gpu |= g.taskResource(step.task) != 0;
    EXPECT_TRUE(off_gpu);
    // Phase attribution covers the whole path.
    double phase_total = 0.0;
    for (const auto &[phase, seconds] : prof.critical_phases)
        phase_total += seconds;
    EXPECT_NEAR(phase_total, prof.critical_length, 1e-12);
}

TEST(Profiler, TopZeroSlackTasksAreSortedAndCapped)
{
    const TaskGraph g = superOffloadLikeGraph();
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const std::vector<TaskId> hot = topZeroSlackTasks(prof, g, 3);
    ASSERT_LE(hot.size(), 3u);
    ASSERT_FALSE(hot.empty());
    const double eps = std::max(prof.makespan, 1.0) * 1e-12;
    for (std::size_t i = 0; i < hot.size(); ++i) {
        EXPECT_LE(prof.slack[hot[i]], eps);
        EXPECT_GT(g.duration(hot[i]), 0.0);
        if (i > 0)
            EXPECT_GE(g.duration(hot[i - 1]), g.duration(hot[i]));
    }
}

TEST(Profiler, EmptyGraphProfilesCleanly)
{
    TaskGraph g;
    g.addResource("GPU");
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    EXPECT_DOUBLE_EQ(prof.makespan, 0.0);
    EXPECT_TRUE(prof.critical_path.empty());
    ASSERT_EQ(prof.resources.size(), 1u);
    ASSERT_EQ(prof.gaps.size(), 1u);
    EXPECT_TRUE(prof.gaps[0].empty());
}

TEST(Profiler, ProfileJsonParsesWithExpectedStructure)
{
    const TaskGraph g = superOffloadLikeGraph();
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const std::string doc_text = profileToJson(prof, g, s, 4);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc_text, doc, &error)) << error;
    EXPECT_NEAR(doc.at("makespan_s").number(), s.makespan, 1e-9);
    EXPECT_NEAR(doc.at("critical_path").at("length_s").number(),
                s.makespan, 1e-6);
    EXPECT_FALSE(doc.at("critical_path").at("tasks").items().empty());

    // Phase shares sum to 1 over the critical path.
    double share = 0.0;
    for (const JsonValue &phase :
         doc.at("critical_path").at("phases").items())
        share += phase.at("share").number();
    EXPECT_NEAR(share, 1.0, 1e-9);

    EXPECT_LE(doc.at("zero_slack_tasks").items().size(), 4u);

    // Idle causes partition each resource's idle time.
    for (const JsonValue &res : doc.at("resources").items()) {
        const double idle = res.at("idle_s").number();
        const double split = res.at("idle_dependency_s").number() +
                             res.at("idle_contention_s").number() +
                             res.at("idle_tail_s").number();
        EXPECT_NEAR(split, idle, 1e-9);
        EXPECT_EQ(res.at("gaps").items().size() == 0, idle == 0.0);
    }
}

TEST(Profiler, ProfileAwareTraceCarriesFlowAndCounters)
{
    const TaskGraph g = superOffloadLikeGraph();
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const std::string trace = toChromeTrace(g, s, &prof);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(trace, doc, &error)) << error;
    std::size_t flow_start = 0, flow_finish = 0, counters = 0,
                complete = 0;
    for (const JsonValue &ev : doc.at("traceEvents").items()) {
        const std::string &ph = ev.at("ph").text();
        if (ph == "s")
            ++flow_start;
        else if (ph == "f")
            ++flow_finish;
        else if (ph == "C")
            ++counters;
        else if (ph == "X")
            ++complete;
    }
    EXPECT_EQ(flow_start, prof.critical_path.size() - 1);
    EXPECT_EQ(flow_finish, prof.critical_path.size() - 1);
    EXPECT_GT(counters, 0u);
    EXPECT_EQ(complete, g.taskCount());

    // The profile-less trace is a strict prefix structurally: a profile
    // only appends events.
    const std::string base = toChromeTrace(g, s);
    JsonValue base_doc;
    ASSERT_TRUE(JsonValue::parse(base, base_doc, &error)) << error;
    EXPECT_LT(base_doc.at("traceEvents").items().size(),
              doc.at("traceEvents").items().size());
}

} // namespace
} // namespace so::sim
