/**
 * @file
 * Level-of-detail profiling tests (sim::ProfileOptions): Summary mode
 * elides exactly the per-task arrays and nothing else, the binned
 * occupancy/energy histograms conserve the full profile's per-resource
 * busy seconds and task joules to 1e-9 relative, the retained top-K
 * task lists are exact prefixes of the full per-task arrays under the
 * same total order, and the streaming exporters (profile JSON, Chrome
 * trace, bundle JSON, bundle shards) emit byte-identical or
 * line-consistent documents versus their buffering counterparts.
 */
#include "sim/profiler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "sim/graph.h"
#include "sim/inspect.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace so::sim {
namespace {

/** Relative tolerance shared by every conservation check. */
void
expectNear(double actual, double expected, double scale)
{
    EXPECT_NEAR(actual, expected, 1e-9 * std::max(scale, 1.0));
}

/** Random DAG over a few phase-labelled resources (test_energy idiom). */
TaskGraph
randomGraph(std::uint64_t seed, std::size_t n_resources,
            std::size_t n_tasks)
{
    Rng rng(seed);
    TaskGraph g;
    for (std::size_t r = 0; r < n_resources; ++r)
        g.addResource("R" + std::to_string(r));
    static const char *kPhases[] = {"fwd", "bwd", "adam", "d2h",
                                    "h2d", "cast"};
    for (std::size_t t = 0; t < n_tasks; ++t) {
        std::vector<TaskId> deps;
        const std::size_t n_deps = t == 0 ? 0 : rng.below(4);
        for (std::size_t d = 0; d < n_deps; ++d) {
            const auto dep = static_cast<TaskId>(rng.below(t));
            bool dup = false;
            for (const TaskId existing : deps)
                dup = dup || existing == dep;
            if (!dup)
                deps.push_back(dep);
        }
        const auto resource =
            static_cast<ResourceId>(rng.below(n_resources));
        const double duration =
            rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.01, 1.0);
        g.addTask(resource, duration,
                  std::string(kPhases[rng.below(6)]) + " t" +
                      std::to_string(t),
                  std::move(deps));
    }
    return g;
}

EnergyInputs
meteredInputs(const TaskGraph &g, std::uint64_t seed)
{
    Rng rng(seed);
    EnergyInputs inputs;
    for (std::size_t r = 0; r < g.resourceCount(); ++r) {
        ResourcePower p;
        p.busy_w = rng.uniform(5.0, 700.0);
        p.idle_w = rng.uniform(0.0, 75.0);
        p.joules_per_byte = rng.bernoulli(0.5) ? 1e-11 : 0.0;
        inputs.resources.push_back(p);
    }
    for (std::size_t t = 0; t < g.taskCount(); ++t)
        inputs.task_bytes.push_back(
            rng.bernoulli(0.3) ? rng.uniform(0.0, 1e9) : 0.0);
    return inputs;
}

ProfileOptions
summaryOptions()
{
    ProfileOptions options;
    options.detail = ProfileOptions::Detail::Summary;
    return options;
}

TEST(ProfileLod, AutoThresholdAndExplicitModes)
{
    ProfileOptions options;
    EXPECT_FALSE(
        options.summarized(ProfileOptions::kAutoSummaryTasks - 1));
    EXPECT_TRUE(options.summarized(ProfileOptions::kAutoSummaryTasks));
    options.detail = ProfileOptions::Detail::Full;
    EXPECT_FALSE(options.summarized(1u << 30));
    options.detail = ProfileOptions::Detail::Summary;
    EXPECT_TRUE(options.summarized(1));
}

TEST(ProfileLod, SummaryElidesOnlyPerTaskArrays)
{
    const TaskGraph g = randomGraph(11, 4, 400);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile full = profileSchedule(g, s);
    const ScheduleProfile sum = profileSchedule(g, s, summaryOptions());

    EXPECT_FALSE(full.summarized);
    EXPECT_TRUE(sum.summarized);
    EXPECT_EQ(sum.task_count, g.taskCount());

    // Elided: the O(V) arrays.
    EXPECT_TRUE(sum.slack.empty());
    EXPECT_TRUE(sum.critical_path.empty());
    ASSERT_EQ(sum.gaps.size(), g.resourceCount());
    for (const std::vector<IdleGap> &gaps : sum.gaps)
        EXPECT_TRUE(gaps.empty());

    // Retained bit-identically: every bounded aggregate.
    EXPECT_DOUBLE_EQ(sum.makespan, full.makespan);
    EXPECT_DOUBLE_EQ(sum.critical_length, full.critical_length);
    EXPECT_EQ(sum.critical_steps, full.critical_path.size());
    ASSERT_EQ(sum.critical_phases.size(), full.critical_phases.size());
    for (std::size_t i = 0; i < sum.critical_phases.size(); ++i) {
        EXPECT_EQ(sum.critical_phases[i].first,
                  full.critical_phases[i].first);
        EXPECT_DOUBLE_EQ(sum.critical_phases[i].second,
                         full.critical_phases[i].second);
    }
    ASSERT_EQ(sum.resources.size(), full.resources.size());
    for (std::size_t r = 0; r < sum.resources.size(); ++r) {
        EXPECT_DOUBLE_EQ(sum.resources[r].busy, full.resources[r].busy);
        EXPECT_DOUBLE_EQ(sum.resources[r].idle, full.resources[r].idle);
        EXPECT_DOUBLE_EQ(sum.resources[r].idle_dependency,
                         full.resources[r].idle_dependency);
        EXPECT_DOUBLE_EQ(sum.resources[r].idle_contention,
                         full.resources[r].idle_contention);
        EXPECT_DOUBLE_EQ(sum.resources[r].idle_tail,
                         full.resources[r].idle_tail);
    }
}

TEST(ProfileLod, BinnedBusyConservesPerResourceBusy)
{
    for (std::uint64_t seed : {1u, 7u, 23u, 99u}) {
        const TaskGraph g = randomGraph(seed, 3 + seed % 3, 300);
        const Schedule s = Scheduler().run(g);
        for (const auto detail : {ProfileOptions::Detail::Full,
                                  ProfileOptions::Detail::Summary}) {
            ProfileOptions options;
            options.detail = detail;
            const ScheduleProfile prof = profileSchedule(g, s, options);
            ASSERT_EQ(prof.busy_bins.size(), g.resourceCount());
            EXPECT_GT(prof.bin_s, 0.0);
            for (ResourceId r = 0; r < g.resourceCount(); ++r) {
                ASSERT_EQ(prof.busy_bins[r].size(), ProfileOptions::kBins);
                double binned = 0.0;
                for (double v : prof.busy_bins[r]) {
                    EXPECT_GE(v, 0.0);
                    // No bin can hold more than its own width.
                    EXPECT_LE(v, prof.bin_s * (1.0 + 1e-9));
                    binned += v;
                }
                expectNear(binned, prof.resources[r].busy,
                           prof.makespan);
            }
        }
    }
}

TEST(ProfileLod, BinnedEnergyConservesTaskJoules)
{
    for (std::uint64_t seed : {3u, 17u, 41u}) {
        const TaskGraph g = randomGraph(seed, 4, 250);
        const Schedule s = Scheduler().run(g);
        const EnergyInputs inputs = meteredInputs(g, seed + 1);

        // The full profile's task_j array is the ground truth the
        // binned rows must conserve.
        const ScheduleProfile full_prof = profileSchedule(g, s);
        const EnergyProfile full =
            attributeEnergy(g, s, full_prof, inputs);
        ASSERT_TRUE(full.valid);
        ASSERT_EQ(full.task_j.size(), g.taskCount());

        const ScheduleProfile sum_prof =
            profileSchedule(g, s, summaryOptions());
        const EnergyProfile sum =
            attributeEnergy(g, s, sum_prof, inputs, summaryOptions());
        ASSERT_TRUE(sum.valid);
        EXPECT_TRUE(sum.summarized);
        EXPECT_TRUE(sum.task_j.empty());
        EXPECT_DOUBLE_EQ(sum.total_j, full.total_j);
        EXPECT_DOUBLE_EQ(sum.active_j, full.active_j);
        EXPECT_DOUBLE_EQ(sum.idle_j, full.idle_j);

        ASSERT_EQ(sum.energy_bins.size(), g.resourceCount());
        for (ResourceId r = 0; r < g.resourceCount(); ++r) {
            double expected = 0.0;
            for (TaskId id = 0; id < g.taskCount(); ++id)
                if (g.taskResource(id) == r)
                    expected += full.task_j[id];
            double binned = 0.0;
            for (double v : sum.energy_bins[r])
                binned += v;
            expectNear(binned, expected, full.active_j);
        }
    }
}

/** The total order both the profiler's TopK heap and a full-array sort
 *  use: value descending, task id ascending on ties. */
bool
outranks(const TopTask &a, const TopTask &b)
{
    if (a.value != b.value)
        return a.value > b.value;
    return a.task < b.task;
}

void
expectExactPrefix(const std::vector<TopTask> &top,
                  std::vector<TopTask> ranked, std::size_t top_k)
{
    std::sort(ranked.begin(), ranked.end(), outranks);
    ASSERT_EQ(top.size(), std::min(top_k, ranked.size()));
    for (std::size_t i = 0; i < top.size(); ++i) {
        EXPECT_EQ(top[i].task, ranked[i].task);
        EXPECT_DOUBLE_EQ(top[i].value, ranked[i].value);
    }
}

TEST(ProfileLod, TopKListsAreExactPrefixesOfFullArrays)
{
    for (std::uint64_t seed : {5u, 29u, 71u}) {
        const TaskGraph g = randomGraph(seed, 4, 350);
        const Schedule s = Scheduler().run(g);
        const ProfileOptions options; // Auto -> Full at this size.
        const ScheduleProfile prof = profileSchedule(g, s, options);
        ASSERT_EQ(prof.slack.size(), g.taskCount());

        const double eps = std::max(prof.makespan, 1.0) * 1e-12;
        std::vector<TopTask> slackers, zeros;
        for (TaskId id = 0; id < g.taskCount(); ++id) {
            if (prof.slack[id] > eps)
                slackers.push_back(TopTask{id, prof.slack[id]});
            else if (g.duration(id) > 0.0)
                zeros.push_back(TopTask{id, g.duration(id)});
        }
        expectExactPrefix(prof.top_slack, slackers, ProfileOptions::kTopK);
        expectExactPrefix(prof.top_zero_slack, zeros, ProfileOptions::kTopK);

        // Summary mode retains the same lists without the full array.
        const ScheduleProfile sum =
            profileSchedule(g, s, summaryOptions());
        ASSERT_EQ(sum.top_slack.size(), prof.top_slack.size());
        for (std::size_t i = 0; i < sum.top_slack.size(); ++i) {
            EXPECT_EQ(sum.top_slack[i].task, prof.top_slack[i].task);
            EXPECT_DOUBLE_EQ(sum.top_slack[i].value,
                             prof.top_slack[i].value);
        }

        // Energy top-K against the full task_j / task_bytes arrays.
        const EnergyInputs inputs = meteredInputs(g, seed + 2);
        const EnergyProfile energy =
            attributeEnergy(g, s, prof, inputs);
        ASSERT_TRUE(energy.valid);
        std::vector<TopTask> by_joules, by_bytes;
        for (TaskId id = 0; id < g.taskCount(); ++id) {
            if (energy.task_j[id] > 0.0)
                by_joules.push_back(TopTask{id, energy.task_j[id]});
            if (inputs.task_bytes[id] > 0.0)
                by_bytes.push_back(
                    TopTask{id, inputs.task_bytes[id]});
        }
        expectExactPrefix(energy.top_tasks, by_joules, ProfileOptions::kTopK);
        expectExactPrefix(energy.top_bytes, by_bytes, ProfileOptions::kTopK);
    }
}

TEST(ProfileLod, PhaseBusyRollupSumsToTotalDuration)
{
    const TaskGraph g = randomGraph(13, 3, 200);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s, summaryOptions());
    double rolled = 0.0;
    for (const auto &[phase, seconds] : prof.phase_busy)
        rolled += seconds;
    double total = 0.0;
    for (TaskId id = 0; id < g.taskCount(); ++id)
        total += g.duration(id);
    expectNear(rolled, total, total);
}

TEST(ProfileLod, SummaryProfileJsonCarriesBoundedViews)
{
    const TaskGraph g = randomGraph(19, 3, 150);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s, summaryOptions());

    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(profileToJson(prof, g, s), doc));
    EXPECT_EQ(doc.at("detail").text(), "summary");
    EXPECT_EQ(static_cast<std::size_t>(doc.at("task_count").number()),
              g.taskCount());

    // The diff viewer's hard requirements stay satisfied in Summary.
    const JsonValue &cp = doc.at("critical_path");
    EXPECT_GT(cp.at("length_s").number(), 0.0);
    EXPECT_TRUE(cp.at("tasks").items().empty());
    EXPECT_GT(cp.at("steps").number(), 0.0);

    const JsonValue &bins = doc.at("bins");
    EXPECT_GT(bins.at("bin_s").number(), 0.0);
    EXPECT_EQ(static_cast<std::size_t>(bins.at("count").number()),
              ProfileOptions::kBins);
    ASSERT_EQ(bins.at("resources").items().size(), g.resourceCount());

    double share = 0.0;
    for (const JsonValue &p : doc.at("phase_busy").items())
        share += p.at("share").number();
    EXPECT_NEAR(share, 1.0, 1e-9);
    EXPECT_FALSE(doc.at("top_slack_tasks").items().empty());
}

TEST(ProfileLod, StreamingExportersMatchBufferingOnes)
{
    const TaskGraph g = randomGraph(31, 3, 120);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);

    std::ostringstream profile_stream;
    streamProfileJson(profile_stream, prof, g, s);
    EXPECT_EQ(profile_stream.str(), profileToJson(prof, g, s));

    std::ostringstream trace_stream;
    streamChromeTrace(trace_stream, g, s, &prof);
    EXPECT_EQ(trace_stream.str(), toChromeTrace(g, s, &prof));

    std::ostringstream bundle_stream;
    streamBundleJson(bundle_stream, g, s, prof, "lod");
    EXPECT_EQ(bundle_stream.str(), bundleToJson(g, s, prof, "lod"));
}

TEST(ProfileLod, SummaryTraceOmitsFlowArrows)
{
    const TaskGraph g = randomGraph(37, 3, 100);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile sum = profileSchedule(g, s, summaryOptions());
    const std::string trace = toChromeTrace(g, s, &sum);
    // Complete events and counters survive; critical-path flow arrows
    // need the elided chain.
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_EQ(trace.find("\"ph\":\"s\""), std::string::npos);
    JsonValue doc;
    EXPECT_TRUE(JsonValue::parse(trace, doc));
}

TEST(ProfileLod, BundleShardsRoundTripLineByLine)
{
    const TaskGraph g = randomGraph(43, 3, 180);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const EnergyInputs inputs = meteredInputs(g, 44);
    const EnergyProfile energy = attributeEnergy(g, s, prof, inputs);

    const std::string path =
        testing::TempDir() + "lod_roundtrip.bundle.jsonl";
    ASSERT_TRUE(
        writeBundleShards(path, g, s, prof, "shards", &energy, 32));

    // Task lines mirror the resources' task orders, which zero-duration
    // tasks never enter.
    std::size_t spanning = 0;
    for (TaskId id = 0; id < g.taskCount(); ++id)
        spanning += g.duration(id) > 0.0 ? 1 : 0;

    std::ifstream in(path);
    ASSERT_TRUE(static_cast<bool>(in));
    std::string line;
    std::size_t tasks = 0, edges = 0, critical = 0, headers = 0;
    bool first = true;
    while (std::getline(in, line)) {
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(line, doc)) << line.substr(0, 80);
        const std::string kind = doc.at("kind").text();
        if (first) {
            EXPECT_EQ(kind, "bundle_shard_header");
            first = false;
        }
        if (kind == "bundle_shard_header") {
            ++headers;
            EXPECT_EQ(static_cast<std::size_t>(
                          doc.at("task_count").number()),
                      g.taskCount());
            EXPECT_EQ(doc.at("resources").items().size(),
                      g.resourceCount());
            expectNear(doc.at("makespan_s").number(), prof.makespan,
                       prof.makespan);
        } else if (kind == "bundle_tasks") {
            const auto &items = doc.at("tasks").items();
            EXPECT_LE(items.size(), 32u);
            for (const JsonValue &t : items) {
                const auto id =
                    static_cast<TaskId>(t.at("id").number());
                // JSON numbers round-trip at writer precision, not
                // bit-exactly.
                expectNear(t.at("start_s").number(), s.start[id],
                           prof.makespan);
                expectNear(t.at("end_s").number(), s.finish[id],
                           prof.makespan);
                expectNear(t.at("slack_s").number(), prof.slack[id],
                           prof.makespan);
                EXPECT_NE(t.find("power_w"), nullptr);
                ++tasks;
            }
        } else if (kind == "bundle_edges") {
            edges += doc.at("edges").items().size();
        } else if (kind == "bundle_critical") {
            critical += doc.at("tasks").items().size();
        } else {
            ADD_FAILURE() << "unknown shard kind " << kind;
        }
    }
    EXPECT_EQ(headers, 1u);
    EXPECT_EQ(tasks, spanning);
    EXPECT_EQ(edges, g.edgeCount());
    EXPECT_EQ(critical, prof.critical_path.size());
    std::remove(path.c_str());
}

TEST(ProfileLod, SummaryShardsSkipSlackAndCritical)
{
    const TaskGraph g = randomGraph(47, 3, 150);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile sum = profileSchedule(g, s, summaryOptions());

    const std::string path =
        testing::TempDir() + "lod_summary.bundle.jsonl";
    ASSERT_TRUE(writeBundleShards(path, g, s, sum, "summary"));

    std::ifstream in(path);
    ASSERT_TRUE(static_cast<bool>(in));
    std::string line;
    std::size_t tasks = 0;
    while (std::getline(in, line)) {
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(line, doc));
        const std::string kind = doc.at("kind").text();
        EXPECT_NE(kind, "bundle_critical");
        if (kind != "bundle_tasks")
            continue;
        for (const JsonValue &t : doc.at("tasks").items()) {
            EXPECT_EQ(t.find("slack_s"), nullptr);
            ++tasks;
        }
    }
    std::size_t spanning = 0;
    for (TaskId id = 0; id < g.taskCount(); ++id)
        spanning += g.duration(id) > 0.0 ? 1 : 0;
    EXPECT_EQ(tasks, spanning);
    std::remove(path.c_str());
}

} // namespace
} // namespace so::sim
