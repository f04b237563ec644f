#include "sim/graph.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace so::sim {
namespace {

TEST(TaskGraph, AddResourceAssignsSequentialIds)
{
    TaskGraph g;
    EXPECT_EQ(g.addResource("GPU"), 0u);
    EXPECT_EQ(g.addResource("CPU"), 1u);
    EXPECT_EQ(g.resourceCount(), 2u);
    EXPECT_EQ(g.resource(0).name, "GPU");
    EXPECT_EQ(g.resource(1).name, "CPU");
}

TEST(TaskGraph, AddTaskStoresFields)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.5, "fwd");
    const TaskId b = g.addTask(r, 0.5, "bwd", {a}, 3);
    EXPECT_EQ(g.taskCount(), 2u);
    EXPECT_DOUBLE_EQ(g.duration(a), 1.5);
    EXPECT_EQ(g.taskResource(a), r);
    EXPECT_EQ(g.label(a), "fwd");
    ASSERT_EQ(g.depCount(b), 1u);
    EXPECT_EQ(g.deps(b)[0], a);
    EXPECT_EQ(g.priority(b), 3);
}

TEST(TaskGraph, DepsAcceptVectorSpanAndBraces)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    const std::vector<TaskId> vec{a};
    const TaskId b = g.addTask(r, 1.0, "b", vec);
    const TaskId c = g.addTask(r, 1.0, "c", g.deps(b));
    EXPECT_EQ(g.deps(b)[0], a);
    EXPECT_EQ(g.deps(c)[0], a);
}

TEST(TaskGraph, TotalWorkSumsPerResource)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    g.addTask(gpu, 1.0, "x");
    g.addTask(gpu, 2.0, "y");
    g.addTask(cpu, 4.0, "z");
    EXPECT_DOUBLE_EQ(g.totalWork(gpu), 3.0);
    EXPECT_DOUBLE_EQ(g.totalWork(cpu), 4.0);
}

TEST(TaskGraph, ZeroDurationTaskAllowed)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    EXPECT_NO_THROW(g.addTask(r, 0.0, "barrier"));
}

TEST(TaskGraph, ReserveDoesNotChangeContents)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    g.reserveTasks(100, 1024);
    g.reserveEdges(200);
    const TaskId a = g.addTask(r, 1.0, "alpha");
    const TaskId b = g.addTask(r, 2.0, "beta", {a});
    EXPECT_EQ(g.taskCount(), 2u);
    EXPECT_EQ(g.label(a), "alpha");
    EXPECT_EQ(g.label(b), "beta");
    EXPECT_EQ(g.deps(b)[0], a);
}

// ---------------------------------------------------------------------
// Label interning.

TEST(TaskGraphIntern, EmptyLabelRoundTrips)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "");
    EXPECT_EQ(g.label(a), "");
    EXPECT_TRUE(g.label(a).empty());
}

TEST(TaskGraphIntern, DuplicateLabelsShareArenaStorage)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "fwd layer");
    const std::size_t after_first = g.labelArenaBytes();
    const TaskId b = g.addTask(r, 2.0, "fwd layer");
    // Distinct tasks, same text — the second intern reuses storage.
    EXPECT_NE(a, b);
    EXPECT_EQ(g.label(a), g.label(b));
    EXPECT_EQ(g.labelArenaBytes(), after_first);
    EXPECT_EQ(g.label(a).data(), g.label(b).data());
}

TEST(TaskGraphIntern, DistinctLabelsKeepDistinctText)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    std::vector<TaskId> ids;
    for (int i = 0; i < 64; ++i)
        ids.push_back(
            g.addTask(r, 1.0, "task-" + std::to_string(i)));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(g.label(ids[static_cast<std::size_t>(i)]),
                  "task-" + std::to_string(i));
}

TEST(TaskGraphIntern, LabelSurvivesArenaGrowth)
{
    // string_views are documented as invalidated by the *next* addTask;
    // re-fetching after heavy growth must still return the right text.
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId first = g.addTask(r, 1.0, "the very first label");
    for (int i = 0; i < 1000; ++i)
        g.addTask(r, 1.0, "filler-" + std::to_string(i));
    EXPECT_EQ(g.label(first), "the very first label");
}

TEST(TaskGraphIntern, QuotesAndUtf8SurviveProfileJson)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const std::string quoted = "say \"hi\"\\path";
    const std::string utf8 = "épöch-θ∇";
    const TaskId a = g.addTask(r, 1.0, quoted);
    g.addTask(r, 2.0, utf8, {a});
    const Schedule sched = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, sched);
    const std::string json = profileToJson(prof, g, sched);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json, doc, &error)) << error;
    // Both labels must appear verbatim somewhere in the parsed document
    // (critical path steps carry task labels).
    bool saw_quoted = false, saw_utf8 = false;
    const JsonValue &steps = doc.at("critical_path").at("tasks");
    for (const JsonValue &step : steps.items()) {
        const std::string &label = step.at("label").text();
        saw_quoted |= label == quoted;
        saw_utf8 |= label == utf8;
    }
    EXPECT_TRUE(saw_quoted);
    EXPECT_TRUE(saw_utf8);
}

TEST(TaskGraphIntern, QuotesAndUtf8SurviveChromeTrace)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const std::string quoted = "tab\there \"q\"";
    const std::string utf8 = "Übergabe-µs";
    const TaskId a = g.addTask(r, 1.0, quoted);
    g.addTask(r, 2.0, utf8, {a});
    const Schedule sched = Scheduler().run(g);
    const std::string json = toChromeTrace(g, sched);

    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json, doc, &error)) << error;
    bool saw_quoted = false, saw_utf8 = false;
    for (const JsonValue &event : doc.at("traceEvents").items()) {
        const JsonValue *name = event.find("name");
        if (!name || !name->isString())
            continue;
        saw_quoted |= name->text() == quoted;
        saw_utf8 |= name->text() == utf8;
    }
    EXPECT_TRUE(saw_quoted);
    EXPECT_TRUE(saw_utf8);
}

// ---------------------------------------------------------------------
// Dependents CSR cache and priority range.

TEST(TaskGraphDependents, MirrorsForwardEdges)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    const TaskId b = g.addTask(r, 1.0, "b", {a});
    const TaskId c = g.addTask(r, 1.0, "c", {a, b});
    const TaskId d = g.addTask(r, 1.0, "d", {a});
    ASSERT_EQ(g.dependents(a).size(), 3u);
    EXPECT_EQ(g.dependents(a)[0], b);
    EXPECT_EQ(g.dependents(a)[1], c);
    EXPECT_EQ(g.dependents(a)[2], d);
    ASSERT_EQ(g.dependents(b).size(), 1u);
    EXPECT_EQ(g.dependents(b)[0], c);
    EXPECT_TRUE(g.dependents(c).empty());
    EXPECT_TRUE(g.dependents(d).empty());
}

TEST(TaskGraphDependents, InvalidatedByAddTaskAndAddDep)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    const TaskId b = g.addTask(r, 1.0, "b", {a});
    EXPECT_EQ(g.dependents(a).size(), 1u); // Builds the cache.
    EXPECT_TRUE(g.dependents(b).empty());

    const TaskId c = g.addTask(r, 1.0, "c", {a, b});
    ASSERT_EQ(g.dependents(a).size(), 2u); // Rebuilt after addTask.
    EXPECT_EQ(g.dependents(a)[1], c);
    ASSERT_EQ(g.dependents(b).size(), 1u);
    EXPECT_EQ(g.dependents(b)[0], c);
    EXPECT_EQ(g.edgeCount(), 3u);
}

TEST(TaskGraphDependents, FinalizeIsIdempotent)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    g.addTask(r, 1.0, "b", {a});
    g.finalizeDependents();
    const TaskId *data = g.dependents(a).data();
    g.finalizeDependents(); // No mutation since: must not rebuild.
    EXPECT_EQ(g.dependents(a).data(), data);
}

TEST(TaskGraphDependents, EmptyGraph)
{
    TaskGraph g;
    g.addResource("GPU");
    g.finalizeDependents();
    EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(TaskGraphPriorities, RangeTracksMinAndMax)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    EXPECT_EQ(g.minPriority(), 0);
    EXPECT_EQ(g.maxPriority(), 0);
    g.addTask(r, 1.0, "a", {}, 5);
    EXPECT_EQ(g.minPriority(), 5);
    EXPECT_EQ(g.maxPriority(), 5);
    g.addTask(r, 1.0, "b", {}, -3);
    g.addTask(r, 1.0, "c", {}, 2);
    EXPECT_EQ(g.minPriority(), -3);
    EXPECT_EQ(g.maxPriority(), 5);
    EXPECT_EQ(g.priority(0), 5);
    EXPECT_EQ(g.priority(1), -3);
    EXPECT_EQ(g.priority(2), 2);
}

// ---------------------------------------------------------------------
// Death tests.

TEST(TaskGraphDeath, RejectsUnknownResource)
{
    TaskGraph g;
    EXPECT_DEATH(g.addTask(3, 1.0, "bad"), "unknown resource");
}

TEST(TaskGraphDeath, RejectsForwardDependency)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    const TaskId a = g.addTask(r, 1.0, "a");
    // Dependencies must reference previously added tasks.
    EXPECT_DEATH(g.addTask(r, 1.0, "b", {static_cast<TaskId>(a + 5)}),
                 "already-added");
}

TEST(TaskGraphDeath, RejectsNegativeDuration)
{
    TaskGraph g;
    const ResourceId r = g.addResource("GPU");
    EXPECT_DEATH(g.addTask(r, -1.0, "bad"), "negative");
}

TEST(TaskGraphDeath, RejectsPrioritySpanBeyondLimit)
{
    // -2048..2047 is the widest span the limit admits, and the
    // scheduler runs it; 0 and 4096 span one priority more.
    TaskGraph widest;
    const ResourceId r = widest.addResource("GPU");
    const TaskId low = widest.addTask(r, 1.0, "low", {}, 2047);
    const TaskId high = widest.addTask(r, 1.0, "high", {}, -2048);
    EXPECT_EQ(widest.maxPriority() - widest.minPriority() + 1,
              kMaxPrioritySpan);
    const Schedule s = Scheduler().run(widest);
    EXPECT_DOUBLE_EQ(s.start[high], 0.0);
    EXPECT_DOUBLE_EQ(s.start[low], 1.0);

    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    g.addTask(gpu, 1.0, "a", {}, 0);
    EXPECT_DEATH(g.addTask(gpu, 1.0, "b", {}, 4096), "limit of 4096");
    EXPECT_DEATH(g.addTask(gpu, 1.0, "b", {}, -4096), "limit of 4096");
}

} // namespace
} // namespace so::sim
