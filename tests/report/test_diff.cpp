/**
 * @file
 * ProfileDiff contract tests: identical profiles diff to zero,
 * disjoint phase sets are flagged appeared/vanished, empty schedules
 * are handled, the signed phase contributions (plus the explicit
 * residual) sum to the makespan delta — exactly by construction, and
 * within 1e-9 even without the residual for profiler-produced inputs,
 * including randomized graphs and real systems diffed through their
 * result-JSON documents.
 */
#include "report/diff.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "hw/presets.h"
#include "model/config.h"
#include "runtime/registry.h"
#include "runtime/result_json.h"
#include "runtime/sweep.h"
#include "sim/graph.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"

namespace so::report {
namespace {

/** Sum invariant: phase deltas + residual == makespan delta. */
void
expectDiffInvariants(const ProfileDiff &diff)
{
    double sum = 0.0;
    for (const PhaseDelta &phase : diff.phases)
        sum += phase.delta;
    const double scale =
        std::max({std::abs(diff.makespan_before),
                  std::abs(diff.makespan_after), 1.0});
    // Exact including the residual...
    EXPECT_NEAR(sum + diff.unattributed, diff.makespan_delta,
                1e-12 * scale);
    // ...and within 1e-9 without it for profiler-produced inputs,
    // because each side's phases sum to its makespan.
    EXPECT_NEAR(sum, diff.makespan_delta, 1e-9 * scale);
    EXPECT_NEAR(diff.makespan_delta,
                diff.makespan_after - diff.makespan_before,
                1e-12 * scale);
    // Ranked largest |delta| first.
    for (std::size_t i = 1; i < diff.phases.size(); ++i)
        EXPECT_GE(std::abs(diff.phases[i - 1].delta),
                  std::abs(diff.phases[i].delta) - 1e-15);
}

/** A small offload-shaped pipeline with tunable phase durations. */
sim::TaskGraph
pipelineGraph(double fwd, double bwd, double adam, std::uint32_t layers)
{
    sim::TaskGraph g;
    const sim::ResourceId gpu = g.addResource("GPU");
    const sim::ResourceId cpu = g.addResource("CPU");
    const sim::ResourceId d2h = g.addResource("D2H");
    std::vector<sim::TaskId> chain;
    for (std::uint32_t l = 0; l < layers; ++l) {
        std::vector<sim::TaskId> deps;
        if (!chain.empty())
            deps.push_back(chain.back());
        chain.push_back(g.addTask(gpu, fwd,
                                  "fwd L" + std::to_string(l), deps));
    }
    for (std::uint32_t l = 0; l < layers; ++l) {
        chain.push_back(g.addTask(gpu, bwd,
                                  "bwd L" + std::to_string(l),
                                  {chain.back()}));
        const sim::TaskId grad = g.addTask(
            d2h, fwd / 2.0, "d2h bucket " + std::to_string(l),
            {chain.back()});
        g.addTask(cpu, adam, "adam bucket " + std::to_string(l),
                  {grad});
    }
    return g;
}

ProfileView
viewOf(const sim::TaskGraph &g, const std::string &label)
{
    const sim::Schedule s = sim::Scheduler().run(g);
    return viewFromProfile(sim::profileSchedule(g, s), label);
}

TEST(ProfileDiff, IdenticalProfilesDiffToZero)
{
    const sim::TaskGraph g = pipelineGraph(0.01, 0.02, 0.015, 4);
    const ProfileView view = viewOf(g, "same");
    const ProfileDiff diff = diffProfiles(view, view);
    EXPECT_DOUBLE_EQ(diff.makespan_delta, 0.0);
    EXPECT_DOUBLE_EQ(diff.unattributed, 0.0);
    ASSERT_FALSE(diff.phases.empty());
    for (const PhaseDelta &phase : diff.phases) {
        EXPECT_DOUBLE_EQ(phase.delta, 0.0);
        EXPECT_FALSE(phase.appeared);
        EXPECT_FALSE(phase.vanished);
    }
    for (const ResourceDelta &res : diff.resources) {
        EXPECT_DOUBLE_EQ(res.busy, 0.0);
        EXPECT_DOUBLE_EQ(res.dependency, 0.0);
        EXPECT_DOUBLE_EQ(res.contention, 0.0);
        EXPECT_DOUBLE_EQ(res.tail, 0.0);
    }
    expectDiffInvariants(diff);
}

TEST(ProfileDiff, DisjointPhaseSetsAppearAndVanish)
{
    ProfileView before, after;
    before.label = "before";
    before.makespan = 3.0;
    before.phases = {{"alpha", 1.0}, {"beta", 2.0}};
    after.label = "after";
    after.makespan = 5.0;
    after.phases = {{"gamma", 5.0}};

    const ProfileDiff diff = diffProfiles(before, after);
    EXPECT_DOUBLE_EQ(diff.makespan_delta, 2.0);
    ASSERT_EQ(diff.phases.size(), 3u);
    // Largest |delta| first: gamma +5, beta -2, alpha -1.
    EXPECT_EQ(diff.phases[0].phase, "gamma");
    EXPECT_TRUE(diff.phases[0].appeared);
    EXPECT_DOUBLE_EQ(diff.phases[0].delta, 5.0);
    EXPECT_EQ(diff.phases[1].phase, "beta");
    EXPECT_TRUE(diff.phases[1].vanished);
    EXPECT_DOUBLE_EQ(diff.phases[1].delta, -2.0);
    EXPECT_EQ(diff.phases[2].phase, "alpha");
    EXPECT_TRUE(diff.phases[2].vanished);
    EXPECT_DOUBLE_EQ(diff.phases[2].delta, -1.0);
    EXPECT_DOUBLE_EQ(diff.unattributed, 0.0);
    expectDiffInvariants(diff);
}

TEST(ProfileDiff, EmptySchedulesDiffToZero)
{
    sim::TaskGraph g;
    g.addResource("GPU");
    const ProfileView empty = viewOf(g, "empty");
    EXPECT_DOUBLE_EQ(empty.makespan, 0.0);
    EXPECT_TRUE(empty.phases.empty());

    const ProfileDiff zero = diffProfiles(empty, empty);
    EXPECT_DOUBLE_EQ(zero.makespan_delta, 0.0);
    EXPECT_TRUE(zero.phases.empty());
    EXPECT_DOUBLE_EQ(zero.unattributed, 0.0);

    // Empty vs non-empty: everything appears, residual stays 0.
    const sim::TaskGraph g2 = pipelineGraph(0.01, 0.02, 0.015, 3);
    const ProfileDiff grow = diffProfiles(empty, viewOf(g2, "real"));
    EXPECT_GT(grow.makespan_delta, 0.0);
    for (const PhaseDelta &phase : grow.phases)
        EXPECT_TRUE(phase.appeared);
    expectDiffInvariants(grow);
}

TEST(ProfileDiff, UnattributedResidualMakesSumExact)
{
    // Hand-built views that do NOT satisfy the profiler invariant:
    // the residual must absorb the gap exactly.
    ProfileView before, after;
    before.makespan = 10.0;
    before.phases = {{"a", 4.0}}; // 6 s unexplained.
    after.makespan = 12.0;
    after.phases = {{"a", 5.0}};
    const ProfileDiff diff = diffProfiles(before, after);
    EXPECT_DOUBLE_EQ(diff.makespan_delta, 2.0);
    EXPECT_DOUBLE_EQ(diff.phases[0].delta, 1.0);
    EXPECT_DOUBLE_EQ(diff.unattributed, 1.0);
}

TEST(ProfileDiff, SumInvariantUnderRandomizedGraphs)
{
    // Random DAGs over a small phase vocabulary, diffed pairwise: the
    // phase contributions must always sum to the makespan delta.
    Rng rng(1234);
    const char *kPhases[] = {"fwd", "bwd", "adam", "d2h", "h2d",
                             "cast"};
    auto random_view = [&](int tag) {
        sim::TaskGraph g;
        const sim::ResourceId gpu = g.addResource("GPU");
        const sim::ResourceId cpu = g.addResource("CPU");
        const sim::ResourceId cpu_b = g.addResource("CPU-b");
        const sim::ResourceId link = g.addResource("D2H");
        const sim::ResourceId resources[] = {gpu, cpu, cpu_b, link};
        const std::uint32_t n =
            8 + static_cast<std::uint32_t>(rng.next() % 40);
        std::vector<sim::TaskId> ids;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::vector<sim::TaskId> deps;
            for (const sim::TaskId id : ids)
                if (rng.uniform() < 0.15)
                    deps.push_back(id);
            const char *phase = kPhases[rng.next() % 6];
            ids.push_back(g.addTask(
                resources[rng.next() % 4],
                0.001 + 0.02 * rng.uniform(),
                std::string(phase) + " t" + std::to_string(i), deps));
        }
        return viewOf(g, "random " + std::to_string(tag));
    };
    for (int round = 0; round < 25; ++round) {
        const ProfileView a = random_view(2 * round);
        const ProfileView b = random_view(2 * round + 1);
        SCOPED_TRACE("round " + std::to_string(round));
        expectDiffInvariants(diffProfiles(a, b));
        expectDiffInvariants(diffProfiles(b, a));
    }
}

TEST(ProfileDiff, ResultJsonOfTwoSystemsDiffsWithinTolerance)
{
    // The acceptance path: evaluate two real systems on one cell with
    // profiling on, export each result as JSON, re-load the documents
    // through viewFromJson, and pin the sum invariant at 1e-9.
    runtime::TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(1);
    setup.model = model::modelPreset("5B");
    setup.global_batch = 8;
    setup.seq = 1024;
    setup.capture_profile = true;

    const runtime::SystemPtr before_sys =
        runtime::makeBaseline("zero-offload");
    const runtime::SystemPtr after_sys =
        runtime::makeBaseline("zero-infinity");
    const runtime::IterationResult before_res = before_sys->run(setup);
    const runtime::IterationResult after_res = after_sys->run(setup);
    ASSERT_TRUE(before_res.feasible);
    ASSERT_TRUE(after_res.feasible);
    ASSERT_TRUE(before_res.profile.valid);
    ASSERT_TRUE(after_res.profile.valid);

    JsonValue before_doc, after_doc;
    ASSERT_TRUE(
        JsonValue::parse(runtime::toJson(before_res), before_doc));
    ASSERT_TRUE(
        JsonValue::parse(runtime::toJson(after_res), after_doc));

    ProfileView before, after;
    std::string error;
    ASSERT_TRUE(viewFromJson(before_doc, before, &error)) << error;
    ASSERT_TRUE(viewFromJson(after_doc, after, &error)) << error;
    EXPECT_GT(before.makespan, 0.0);
    EXPECT_FALSE(before.phases.empty());
    EXPECT_FALSE(before.resources.empty());

    const ProfileDiff diff = diffProfiles(before, after);
    expectDiffInvariants(diff);
    // JSON serialization rounds doubles, so the round-tripped makespan
    // matches to the acceptance tolerance rather than bit-exactly.
    EXPECT_NEAR(diff.makespan_before, before_res.profile.makespan,
                1e-9);
    EXPECT_NEAR(diff.makespan_after, after_res.profile.makespan,
                1e-9);
}

TEST(ProfileDiff, EnergyDeltasAttributePhaseByPhase)
{
    // The energy acceptance path: two real systems on one cell with
    // profiling on, diffed through viewFromIteration. Phase joule
    // deltas plus the explicit residual must rebuild the total joule
    // delta exactly, and the residual must be precisely the idle +
    // background joule change (phases attribute only active joules).
    runtime::TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(1);
    setup.model = model::modelPreset("5B");
    setup.global_batch = 8;
    setup.seq = 1024;
    setup.capture_profile = true;

    const runtime::SystemPtr before_sys =
        runtime::makeBaseline("zero-offload");
    const runtime::SystemPtr after_sys =
        runtime::makeBaseline("zero-infinity");
    const runtime::IterationResult before_res = before_sys->run(setup);
    const runtime::IterationResult after_res = after_sys->run(setup);
    ASSERT_TRUE(before_res.feasible && before_res.energy.valid);
    ASSERT_TRUE(after_res.feasible && after_res.energy.valid);

    const ProfileView before =
        viewFromIteration(before_res, before_sys->name());
    const ProfileView after =
        viewFromIteration(after_res, after_sys->name());
    ASSERT_TRUE(before.has_energy);
    ASSERT_TRUE(after.has_energy);
    EXPECT_FALSE(before.energy_phases.empty());

    const ProfileDiff diff = diffProfiles(before, after);
    expectDiffInvariants(diff);
    ASSERT_TRUE(diff.has_energy);
    const double scale = std::max(
        {std::abs(diff.energy_before_j), std::abs(diff.energy_after_j),
         1.0});
    EXPECT_NEAR(diff.energy_delta_j,
                after_res.energy.total_j - before_res.energy.total_j,
                1e-12 * scale);
    double attributed = 0.0;
    for (const PhaseDelta &phase : diff.energy_phases)
        attributed += phase.delta;
    EXPECT_NEAR(attributed + diff.energy_unattributed_j,
                diff.energy_delta_j, 1e-12 * scale);
    // Residual == idle + background joule change, pinned at 1e-9.
    const double idle_bg_before =
        before_res.energy.idle_j + before_res.energy.background_j;
    const double idle_bg_after =
        after_res.energy.idle_j + after_res.energy.background_j;
    EXPECT_NEAR(diff.energy_unattributed_j,
                idle_bg_after - idle_bg_before, 1e-9 * scale);
    // Ranked largest |joule delta| first.
    for (std::size_t i = 1; i < diff.energy_phases.size(); ++i)
        EXPECT_GE(std::abs(diff.energy_phases[i - 1].delta),
                  std::abs(diff.energy_phases[i].delta) - 1e-15);

    // Both renderers surface the attribution.
    const std::string text = diffToText(diff);
    EXPECT_NE(text.find("energy"), std::string::npos);
    EXPECT_NE(text.find("(idle+background)"), std::string::npos);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(diffToJson(diff), doc, &error))
        << error;
    const JsonValue *energy = doc.find("energy");
    ASSERT_NE(energy, nullptr);
    EXPECT_NEAR(energy->find("delta_j")->number(), diff.energy_delta_j,
                1e-9 * scale);
    EXPECT_NE(energy->find("phases"), nullptr);
    EXPECT_NE(energy->find("unattributed_j"), nullptr);

    // The same energy attribution survives the JSON round trip.
    JsonValue before_doc, after_doc;
    ASSERT_TRUE(
        JsonValue::parse(runtime::toJson(before_res), before_doc));
    ASSERT_TRUE(
        JsonValue::parse(runtime::toJson(after_res), after_doc));
    ProfileView before_rt, after_rt;
    ASSERT_TRUE(viewFromJson(before_doc, before_rt, &error)) << error;
    ASSERT_TRUE(viewFromJson(after_doc, after_rt, &error)) << error;
    ASSERT_TRUE(before_rt.has_energy);
    EXPECT_NEAR(before_rt.energy_j, before_res.energy.total_j,
                1e-9 * scale);
    EXPECT_EQ(before_rt.energy_phases.size(),
              before.energy_phases.size());
}

TEST(ProfileDiff, EnergyFreeViewsDiffWithoutEnergy)
{
    // viewFromProfile carries no metering: the diff must stay usable
    // and simply omit the energy block (old documents behave the same).
    const sim::TaskGraph g = pipelineGraph(0.01, 0.02, 0.015, 4);
    const ProfileView a = viewOf(g, "a");
    const ProfileView b = viewOf(g, "b");
    EXPECT_FALSE(a.has_energy);
    const ProfileDiff diff = diffProfiles(a, b);
    EXPECT_FALSE(diff.has_energy);
    EXPECT_EQ(diffToText(diff).find("(idle+background)"),
              std::string::npos);
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(diffToJson(diff), doc));
    EXPECT_EQ(doc.find("energy"), nullptr);
}

TEST(ProfileDiff, DiffSweepCellsMatchesDirectDiff)
{
    runtime::TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(1);
    setup.model = model::modelPreset("5B");
    setup.global_batch = 8;
    setup.seq = 1024;
    setup.capture_profile = true;

    const runtime::SystemPtr a = runtime::makeBaseline("ddp");
    const runtime::SystemPtr b = runtime::makeBaseline("zero-offload");
    runtime::SweepEngine engine;
    const std::size_t ia = engine.add(*a, setup);
    const std::size_t ib = engine.add(*b, setup);
    engine.run();

    const runtime::IterationResult &ra = engine.result(ia);
    const runtime::IterationResult &rb = engine.result(ib);
    ASSERT_TRUE(ra.profile.valid);
    ASSERT_TRUE(rb.profile.valid);
    const ProfileDiff diff =
        diffProfiles(viewFromIteration(ra, a->name()),
                     viewFromIteration(rb, b->name()));
    EXPECT_EQ(diff.before_label, a->name());
    EXPECT_EQ(diff.after_label, b->name());
    EXPECT_DOUBLE_EQ(diff.makespan_before, ra.profile.makespan);
    EXPECT_DOUBLE_EQ(diff.makespan_after, rb.profile.makespan);
    expectDiffInvariants(diff);
}

TEST(ProfileDiff, JsonDocumentsRoundTrip)
{
    const sim::TaskGraph g = pipelineGraph(0.01, 0.02, 0.015, 4);
    const sim::Schedule s = sim::Scheduler().run(g);
    const sim::ScheduleProfile prof = sim::profileSchedule(g, s);

    // Standalone profile document (sim::profileToJson shape).
    JsonValue profile_doc;
    ASSERT_TRUE(
        JsonValue::parse(sim::profileToJson(prof, g, s), profile_doc));
    ProfileView from_doc;
    std::string error;
    ASSERT_TRUE(viewFromJson(profile_doc, from_doc, &error)) << error;

    const ProfileView direct = viewFromProfile(prof, "direct");
    EXPECT_NEAR(from_doc.makespan, direct.makespan, 1e-12);
    ASSERT_EQ(from_doc.phases.size(), direct.phases.size());
    for (std::size_t i = 0; i < direct.phases.size(); ++i) {
        EXPECT_EQ(from_doc.phases[i].phase, direct.phases[i].phase);
        EXPECT_NEAR(from_doc.phases[i].seconds,
                    direct.phases[i].seconds, 1e-12);
    }
    ASSERT_EQ(from_doc.resources.size(), direct.resources.size());

    // The diff's own JSON parses and repeats the invariant fields.
    const ProfileDiff diff = diffProfiles(direct, from_doc);
    JsonValue diff_doc;
    ASSERT_TRUE(JsonValue::parse(diffToJson(diff), diff_doc));
    EXPECT_NEAR(diff_doc.at("makespan_delta_s").number(),
                diff.makespan_delta, 1e-12);
    EXPECT_EQ(diff_doc.at("phases").items().size(),
              diff.phases.size());

    // And the human rendering mentions every phase.
    const std::string text = diffToText(diff);
    for (const PhaseDelta &phase : diff.phases)
        EXPECT_NE(text.find(phase.phase), std::string::npos);
    EXPECT_NE(text.find("unattributed"), std::string::npos);
}

TEST(ProfileDiff, ViewFromJsonRejectsUnusableDocuments)
{
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse("{\"unrelated\": 1}", doc));
    ProfileView view;
    std::string error;
    EXPECT_FALSE(viewFromJson(doc, view, &error));
    EXPECT_FALSE(error.empty());

    // Feasible result without a profile section names the fix.
    ASSERT_TRUE(JsonValue::parse(
        "{\"feasible\": true, \"iter_time_s\": 1.0}", doc));
    EXPECT_FALSE(viewFromJson(doc, view, &error));
    EXPECT_NE(error.find("profile"), std::string::npos);

    // A cell index beyond size_t is out of range, not an exception.
    ASSERT_TRUE(JsonValue::parse("{\"cells\": [{\"system\": \"a\"}]}", doc));
    EXPECT_FALSE(
        viewFromJson(doc, view, &error, "99999999999999999999"));
    EXPECT_NE(error.find("out of range"), std::string::npos) << error;

    // Wrong-typed members where an object belongs: an error, not an
    // assertion failure.
    ASSERT_TRUE(JsonValue::parse(
        "{\"makespan_s\": 1, \"critical_path\": 5}", doc));
    EXPECT_FALSE(viewFromJson(doc, view, &error));
    EXPECT_NE(error.find("critical_path"), std::string::npos) << error;
    ASSERT_TRUE(JsonValue::parse("{\"cells\": [5]}", doc));
    EXPECT_FALSE(viewFromJson(doc, view, &error, "0"));
    EXPECT_NE(error.find("not an object"), std::string::npos) << error;
}

TEST(ProfileDiff, TopContributorsTruncates)
{
    ProfileView before, after;
    before.makespan = 6.0;
    before.phases = {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}};
    after.makespan = 3.0;
    after.phases = {{"a", 0.5}, {"b", 1.5}, {"c", 1.0}};
    const ProfileDiff diff = diffProfiles(before, after);
    // Largest |delta| first, so the top contributors are a prefix.
    ASSERT_EQ(diff.phases.size(), 3u);
    EXPECT_EQ(diff.phases[0].phase, "c"); // -2.0, the largest magnitude.
    for (std::size_t i = 1; i < diff.phases.size(); ++i)
        EXPECT_GE(std::abs(diff.phases[i - 1].delta),
                  std::abs(diff.phases[i].delta));
}

} // namespace
} // namespace so::report
