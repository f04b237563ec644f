#include "sim/trace.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.h"
#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {
namespace {

TaskGraph
smallGraph()
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId cpu = g.addResource("CPU");
    const TaskId a = g.addTask(gpu, 1.0, "fwd");
    g.addTask(cpu, 0.5, "adam \"step\"", {a});
    return g;
}

TEST(Trace, ChromeTraceContainsEventsAndMetadata)
{
    const TaskGraph g = smallGraph();
    const Schedule s = Scheduler().run(g);
    const std::string json = toChromeTrace(g, s);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
    EXPECT_NE(json.find("fwd"), std::string::npos);
    // The embedded quote must be escaped.
    EXPECT_NE(json.find("adam \\\"step\\\""), std::string::npos);
    EXPECT_EQ(json.find("adam \"step\""), std::string::npos);
}

TEST(Trace, AsciiGanttHasOneRowPerResource)
{
    const TaskGraph g = smallGraph();
    const Schedule s = Scheduler().run(g);
    const std::string gantt = toAsciiGantt(g, s, 40);
    EXPECT_NE(gantt.find("GPU"), std::string::npos);
    EXPECT_NE(gantt.find("CPU"), std::string::npos);
    // Two newline-terminated rows.
    EXPECT_EQ(std::count(gantt.begin(), gantt.end(), '\n'), 2);
    EXPECT_NE(gantt.find('#'), std::string::npos);
}

TEST(Trace, AsciiGanttBusyFractionRoughlyMatches)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const TaskId a = g.addTask(gpu, 1.0, "a");
    g.addTask(gpu, 0.0, "zero", {a});
    // Add an idle tail via another resource.
    const ResourceId cpu = g.addResource("CPU");
    g.addTask(cpu, 1.0, "c", {a});
    const Schedule s = Scheduler().run(g);
    const std::string gantt = toAsciiGantt(g, s, 100);
    // The GPU row should be roughly half busy.
    const std::string gpu_row = gantt.substr(0, gantt.find('\n'));
    const auto busy = std::count(gpu_row.begin(), gpu_row.end(), '#');
    EXPECT_GT(busy, 40);
    EXPECT_LT(busy, 60);
}

TEST(Trace, ChromeTraceRoundTripsThroughJsonParser)
{
    const TaskGraph g = smallGraph();
    const Schedule s = Scheduler().run(g);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(toChromeTrace(g, s), doc, &error))
        << error;
    ASSERT_TRUE(doc.at("traceEvents").isArray());
    std::size_t complete = 0, metadata = 0;
    for (const JsonValue &ev : doc.at("traceEvents").items()) {
        const std::string &ph = ev.at("ph").text();
        if (ph == "X") {
            ++complete;
            EXPECT_GE(ev.at("dur").number(), 0.0);
            EXPECT_GE(ev.at("ts").number(), 0.0);
        } else if (ph == "M") {
            ++metadata;
        }
    }
    EXPECT_EQ(complete, g.taskCount());
    EXPECT_EQ(metadata, g.resourceCount());
    // The escaped label survives the round trip intact.
    bool found = false;
    for (const JsonValue &ev : doc.at("traceEvents").items())
        if (ev.at("ph").text() == "X" &&
            ev.at("name").text() == "adam \"step\"")
            found = true;
    EXPECT_TRUE(found);
}

TEST(Trace, PhaseKeyRules)
{
    // Documented grouping rules, pinned: first space-delimited token,
    // trailing digit run stripped; all-digit tokens keep their digits;
    // empty (or blank-leading) labels get a synthetic phase.
    EXPECT_EQ(phaseKey(""), "(unnamed)");
    EXPECT_EQ(phaseKey("fwd L3"), "fwd");
    EXPECT_EQ(phaseKey("fwd3"), "fwd");
    EXPECT_EQ(phaseKey("adam(gpu) b3"), "adam(gpu)");
    EXPECT_EQ(phaseKey("128k prefetch"), "128k");
    EXPECT_EQ(phaseKey("128k"), "128k");
    EXPECT_EQ(phaseKey("d2h bucket 4"), "d2h");
    EXPECT_EQ(phaseKey("42 things"), "42");
    EXPECT_EQ(phaseKey(" leading space"), "(unnamed)");
}

TEST(Trace, EmptyScheduleGantt)
{
    TaskGraph g;
    g.addResource("GPU");
    const Schedule s = Scheduler().run(g);
    EXPECT_EQ(toAsciiGantt(g, s), "(empty schedule)\n");
}

} // namespace
} // namespace so::sim
