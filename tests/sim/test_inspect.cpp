/**
 * @file
 * Inspection-bundle tests: the bundleToJson document flattens exactly
 * the schedule it was given (every task id, every dependency edge, the
 * profiler's slack/critical/idle data, the energy profile's watts), as
 * read back through the JSON parser. The shard writer's bytes are
 * pinned on a small metered graph.
 */
#include "sim/inspect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "common/json.h"
#include "common/schema.h"
#include "sim/graph.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace so::sim {
namespace {

// The JSON writer prints 12 significant digits; every time here is
// under a tenth of a second, so a printed time is within 1e-13 of it.
constexpr double kTol = 1e-12;

/** GPU pipeline draining over two links with a fan-in. */
TaskGraph
pipelineGraph()
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId d2h = g.addResource("D2H");
    const ResourceId d2h_b = g.addResource("D2H-b");
    const TaskId f0 = g.addTask(gpu, 0.010, "fwd L0", {});
    const TaskId f1 = g.addTask(gpu, 0.010, "fwd L1", {f0});
    const TaskId b1 = g.addTask(gpu, 0.020, "bwd L1", {f1});
    const TaskId b0 = g.addTask(gpu, 0.020, "bwd L0", {b1});
    const TaskId g1 = g.addTask(d2h, 0.015, "d2h bucket 1", {b1});
    const TaskId g0 = g.addTask(d2h_b, 0.015, "d2h bucket 0", {b0});
    g.addTask(gpu, 0.005, "cast params", {g0, g1});
    return g;
}

struct Built
{
    TaskGraph graph;
    Schedule schedule;
    ScheduleProfile profile;
};

Built
buildPipeline()
{
    Built b;
    b.graph = pipelineGraph();
    b.schedule = Scheduler().run(b.graph);
    b.profile = profileSchedule(b.graph, b.schedule);
    return b;
}

JsonValue
parseBundle(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, doc, &error)) << error;
    return doc;
}

TaskId
taskId(const JsonValue &value)
{
    return static_cast<TaskId>(value.number());
}

TEST(BundleJson, FlattensScheduleExactly)
{
    const Built b = buildPipeline();
    const JsonValue doc =
        parseBundle(bundleToJson(b.graph, b.schedule, b.profile, "unit"));
    EXPECT_EQ(doc.at("kind").text(), "inspection_bundle");
    EXPECT_DOUBLE_EQ(doc.at("schema_version").number(),
                     static_cast<double>(kSchemaVersion));
    EXPECT_EQ(doc.at("label").text(), "unit");
    EXPECT_NEAR(doc.at("makespan_s").number(), b.schedule.makespan, kTol);

    const auto &tasks = doc.at("tasks").items();
    const auto &resources = doc.at("resources").items();
    ASSERT_EQ(tasks.size(), b.graph.taskCount());
    ASSERT_EQ(resources.size(), b.graph.resourceCount());

    for (TaskId id = 0; id < b.graph.taskCount(); ++id) {
        const JsonValue &span = tasks[id];
        EXPECT_EQ(taskId(span.at("id")), id);
        EXPECT_EQ(span.at("label").text(), b.graph.label(id));
        EXPECT_EQ(span.at("phase").text(), phaseKey(b.graph.label(id)));
        EXPECT_EQ(span.at("resource").number(), b.graph.taskResource(id));
        EXPECT_NEAR(span.at("start_s").number(), b.schedule.start[id],
                    kTol);
        EXPECT_NEAR(span.at("end_s").number(), b.schedule.finish[id],
                    kTol);
        EXPECT_NEAR(span.at("slack_s").number(), b.profile.slack[id],
                    kTol);
        // Every resource runs one task at a time: one lane, slot 0.
        EXPECT_EQ(span.at("slot").number(), 0.0);
        EXPECT_LT(span.at("slot").number(),
                  resources[b.graph.taskResource(id)].at("slots").number());
    }

    // Every dependency edge appears exactly once, as [before, after].
    std::set<std::pair<TaskId, TaskId>> edges;
    for (const JsonValue &edge : doc.at("edges").items())
        edges.emplace(taskId(edge.items()[0]), taskId(edge.items()[1]));
    EXPECT_EQ(edges.size(), doc.at("edges").items().size());
    std::size_t expected = 0;
    for (TaskId id = 0; id < b.graph.taskCount(); ++id)
        for (TaskId dep : b.graph.deps(id)) {
            EXPECT_TRUE(edges.count({dep, id}))
                << "missing edge " << dep << " -> " << id;
            ++expected;
        }
    EXPECT_EQ(edges.size(), expected);

    // The critical path mirrors the profiler's, and exactly the tasks
    // on it carry the critical flag.
    const auto &path = doc.at("critical_path").items();
    ASSERT_EQ(path.size(), b.profile.critical_path.size());
    std::set<TaskId> on_path;
    for (std::size_t i = 0; i < path.size(); ++i) {
        EXPECT_EQ(taskId(path[i]), b.profile.critical_path[i].task);
        on_path.insert(taskId(path[i]));
    }
    for (TaskId id = 0; id < b.graph.taskCount(); ++id)
        EXPECT_EQ(tasks[id].at("critical").boolean(), on_path.count(id) != 0)
            << id;

    // Resource summaries restate the profiler's idle attribution.
    for (ResourceId r = 0; r < b.graph.resourceCount(); ++r) {
        const JsonValue &res = resources[r];
        const ResourceProfile &rp = b.profile.resources[r];
        EXPECT_EQ(res.at("resource").text(), b.graph.resource(r).name);
        EXPECT_EQ(res.at("slots").number(), 1.0);
        EXPECT_NEAR(res.at("busy_s").number(), rp.busy, kTol);
        EXPECT_NEAR(res.at("idle_dependency_s").number(),
                    rp.idle_dependency, kTol);
        EXPECT_NEAR(res.at("idle_contention_s").number(),
                    rp.idle_contention, kTol);
        EXPECT_NEAR(res.at("idle_tail_s").number(), rp.idle_tail, kTol);
        const auto &gaps = res.at("gaps").items();
        const std::vector<IdleGap> &rp_gaps = b.profile.gaps[r];
        ASSERT_EQ(gaps.size(), rp_gaps.size());
        for (std::size_t i = 0; i < gaps.size(); ++i) {
            EXPECT_NEAR(gaps[i].at("begin_s").number(), rp_gaps[i].begin,
                        kTol);
            EXPECT_NEAR(gaps[i].at("end_s").number(), rp_gaps[i].end,
                        kTol);
            EXPECT_EQ(gaps[i].at("cause").text(),
                      idleCauseName(rp_gaps[i].cause));
        }
    }
}

TEST(BundleJson, MeteredBundleRoundTripsWattFields)
{
    // With an EnergyProfile attached, the bundle carries per-resource
    // watts, per-span draw, and the energy totals.
    const Built b = buildPipeline();
    EnergyInputs inputs;
    inputs.resources = {
        {700.0, 75.0, 0.0}, {15.0, 5.0, 1e-11}, {15.0, 5.0, 1e-11}};
    inputs.task_bytes.assign(b.graph.taskCount(), 0.0);
    inputs.task_bytes[4] = 1e9; // "d2h bucket 1" moves a gigabyte.
    inputs.background.emplace_back("DDR refresh", 20.0);
    const EnergyProfile energy =
        attributeEnergy(b.graph, b.schedule, b.profile, inputs);
    ASSERT_TRUE(energy.valid);
    const JsonValue doc = parseBundle(
        bundleToJson(b.graph, b.schedule, b.profile, "metered", &energy));

    const auto relTol = [](double v) { return 1e-11 * std::max(v, 1.0); };
    EXPECT_GT(doc.at("total_j").number(), 0.0);
    EXPECT_NEAR(doc.at("total_j").number(), energy.total_j,
                relTol(energy.total_j));
    EXPECT_NEAR(doc.at("avg_w").number(), energy.avg_w,
                relTol(energy.avg_w));
    const auto &resources = doc.at("resources").items();
    ASSERT_EQ(resources.size(), inputs.resources.size());
    for (std::size_t r = 0; r < resources.size(); ++r) {
        EXPECT_DOUBLE_EQ(resources[r].at("busy_w").number(),
                         inputs.resources[r].busy_w);
        EXPECT_DOUBLE_EQ(resources[r].at("idle_w").number(),
                         inputs.resources[r].idle_w);
    }
    // Draws mix busy watts with a per-byte toll (15 + bytes/s × jpb),
    // amortized over the span so the timeline integrates back to the
    // task's joules.
    const auto &tasks = doc.at("tasks").items();
    ASSERT_EQ(tasks.size(), b.graph.taskCount());
    for (TaskId id = 0; id < b.graph.taskCount(); ++id) {
        const double want = energy.task_j[id] / b.graph.duration(id);
        EXPECT_NEAR(tasks[id].at("power_w").number(), want, relTol(want))
            << id;
    }
    // GPU spans draw GPU busy watts; the unmetered bundle keeps every
    // watt field at zero.
    EXPECT_DOUBLE_EQ(tasks[0].at("power_w").number(), 700.0);
    EXPECT_GT(tasks[4].at("power_w").number(), 15.0);
    const JsonValue plain =
        parseBundle(bundleToJson(b.graph, b.schedule, b.profile, "plain"));
    EXPECT_DOUBLE_EQ(plain.at("total_j").number(), 0.0);
    EXPECT_DOUBLE_EQ(plain.at("resources").items()[0].at("busy_w").number(),
                     0.0);
    EXPECT_DOUBLE_EQ(plain.at("tasks").items()[0].at("power_w").number(),
                     0.0);
}

TEST(BundleJson, ZeroDurationTasksKeepTheirSpans)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const TaskId a = g.addTask(gpu, 0.0, "barrier enter", {});
    g.addTask(gpu, 0.010, "fwd L0", {a});
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const JsonValue doc = parseBundle(bundleToJson(g, s, prof));
    const auto &tasks = doc.at("tasks").items();
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_EQ(tasks[0].at("label").text(), "barrier enter");
    EXPECT_DOUBLE_EQ(tasks[0].at("end_s").number() -
                         tasks[0].at("start_s").number(),
                     0.0);
}

/** "<bytes>:<FNV-1a 64 hex>" of one written artifact. */
std::string
artifactPin(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%zu:%016llx", bytes.size(),
                  static_cast<unsigned long long>(h));
    return buf;
}

TEST(BundleShardPin, MeteredShardBytesIdentical)
{
    // Three resources, zero-duration barriers, priorities -1/0/1, a CPU
    // that queues its optimizer steps and a metered energy profile,
    // written in chunks of 8: task, edge and critical-path lines all
    // split across chunks. A refactor
    // of the shard writer, the scheduler or the profiler must leave
    // these bytes untouched.
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId d2h = g.addResource("D2H");
    const ResourceId cpu = g.addResource("CPU");
    TaskId prev = g.addTask(gpu, 0.0, "barrier enter");
    std::vector<TaskId> steps;
    for (int l = 0; l < 6; ++l) {
        const std::string layer = std::to_string(l);
        prev = g.addTask(gpu, 0.004 + 0.001 * l, "bwd L" + layer, {prev});
        const TaskId moved = g.addTask(d2h, 0.003, "d2h bucket " + layer,
                                       {prev}, l % 2 == 0 ? 1 : -1);
        steps.push_back(g.addTask(cpu, 0.007, "adam b" + layer, {moved},
                                  l % 3 - 1));
    }
    const TaskId leave = g.addTask(gpu, 0.0, "barrier exit", steps, 1);
    g.addTask(d2h, 0.002, "h2d params", {leave}, 0);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);

    EnergyInputs inputs;
    inputs.resources = {{700.0, 75.0, 0.0}, {15.0, 5.0, 1e-11},
                        {250.0, 40.0, 0.0}};
    inputs.task_bytes.assign(g.taskCount(), 0.0);
    for (TaskId id = 0; id < g.taskCount(); ++id)
        if (g.taskResource(id) == d2h)
            inputs.task_bytes[id] = 2.5e8 * (1 + id % 3);
    inputs.background.emplace_back("DDR refresh", 20.0);
    const EnergyProfile energy = attributeEnergy(g, s, prof, inputs);
    ASSERT_TRUE(energy.valid);

    const std::string path =
        ::testing::TempDir() + "pin_metered.bundle.jsonl";
    ASSERT_TRUE(writeBundleShards(path, g, s, prof, "pin", &energy, 8));
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    std::remove(path.c_str());
    EXPECT_EQ(artifactPin(bytes.str()), "3433:41f101a836cc79f8");
}

} // namespace
} // namespace so::sim
