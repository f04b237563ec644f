/**
 * @file
 * Energy-attribution invariant tests (docs/ENERGY.md): per-phase
 * joules sum to the active joules, per-resource idle-cause joules
 * partition the idle joules, busy/idle joules reproduce watts × time,
 * and the grand total splits exactly into active + idle + background —
 * on handmade graphs and randomized graphs, all to 1e-9
 * relative. The profile-free meter reproduces the attributed totals.
 * The JSON export carries the energy subtree and parses back.
 */
#include "sim/profiler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {
namespace {

/** Relative tolerance shared by every conservation check. */
void
expectNear(double actual, double expected, double scale)
{
    EXPECT_NEAR(actual, expected, 1e-9 * std::max(scale, 1.0));
}

/**
 * Random graphs: a resource runs one task at a time, so union busy time
 * equals the sum of task durations per resource, and task-attributed
 * joules and busy-time joules must agree exactly.
 */
TaskGraph
randomUnitCapacityGraph(std::uint64_t seed, std::size_t n_resources,
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
meteredInputs(const TaskGraph &g, Rng &rng)
{
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
    inputs.background.emplace_back("DDR refresh",
                                   rng.uniform(0.0, 60.0));
    return inputs;
}

void
expectEnergyInvariants(const TaskGraph &g, const Schedule &s,
                       const EnergyInputs &inputs)
{
    const ScheduleProfile prof = profileSchedule(g, s);
    const EnergyProfile e = attributeEnergy(g, s, prof, inputs);
    ASSERT_TRUE(e.valid);
    EXPECT_DOUBLE_EQ(e.makespan, s.makespan);

    // Per-task joules reproduce the formula.
    ASSERT_EQ(e.task_j.size(), g.taskCount());
    double task_sum = 0.0;
    for (std::size_t t = 0; t < g.taskCount(); ++t) {
        const ResourcePower &p = inputs.resources[g.taskResource(
            static_cast<TaskId>(t))];
        const double bytes = t < inputs.task_bytes.size()
                                 ? inputs.task_bytes[t]
                                 : 0.0;
        const double expected =
            p.busy_w * g.duration(static_cast<TaskId>(t)) +
            p.joules_per_byte * bytes;
        expectNear(e.task_j[t], expected, expected);
        task_sum += e.task_j[t];
    }

    // Phase joules are a regrouping of the task joules, and both
    // equal the active joules.
    double phase_sum = 0.0;
    for (const auto &[phase, joules] : e.phases)
        phase_sum += joules;
    expectNear(phase_sum, task_sum, task_sum);
    expectNear(e.active_j, task_sum, task_sum);

    // Per-resource: busy/idle joules are watts × time, the cause
    // joules partition idle_j, and the resource sums rebuild the
    // totals.
    ASSERT_EQ(e.resources.size(), g.resourceCount());
    double active = 0.0, idle = 0.0;
    for (std::size_t r = 0; r < g.resourceCount(); ++r) {
        const ResourceEnergy &re = e.resources[r];
        const ResourceProfile &rp = prof.resources[r];
        expectNear(re.busy_j, re.busy_w * rp.busy, re.busy_j);
        expectNear(re.idle_j, re.idle_w * rp.idle, re.idle_j);
        expectNear(re.idle_dependency_j + re.idle_contention_j +
                       re.idle_tail_j,
                   re.idle_j, re.idle_j);
        active += re.busy_j + re.transfer_j;
        idle += re.idle_j;
    }
    expectNear(e.active_j, active, active);
    expectNear(e.idle_j, idle, idle);

    // Background is watts × makespan, and the grand total splits
    // exactly three ways.
    double bg = 0.0;
    for (const auto &[name, watts] : inputs.background)
        bg += watts * s.makespan;
    expectNear(e.background_j, bg, bg);
    expectNear(e.total_j, e.active_j + e.idle_j + e.background_j,
               e.total_j);
    if (s.makespan > 0.0)
        expectNear(e.avg_w, e.total_j / s.makespan, e.avg_w);

    // The profile-free meter applies the same per-resource rule to the
    // schedule's busy seconds: the same totals, no cause or phase split.
    const EnergyTotals cheap = meterEnergy(g, s, inputs);
    ASSERT_TRUE(cheap.valid);
    EXPECT_TRUE(cheap.phases.empty());
    EXPECT_EQ(cheap.resource_names, prof.resource_names);
    ASSERT_EQ(cheap.resources.size(), g.resourceCount());
    for (std::size_t r = 0; r < g.resourceCount(); ++r) {
        const ResourceEnergy &a = cheap.resources[r];
        const ResourceEnergy &b = e.resources[r];
        EXPECT_EQ(a.transfer_j, b.transfer_j);
        expectNear(a.busy_j, b.busy_j, b.busy_j);
        expectNear(a.idle_j, b.idle_j, b.idle_j);
        EXPECT_EQ(a.idle_dependency_j + a.idle_contention_j +
                      a.idle_tail_j,
                  0.0);
    }
    EXPECT_EQ(cheap.background, e.background);
    expectNear(cheap.total_j, e.total_j, e.total_j);
}

TEST(Energy, HandmadeTwoResourcePipeline)
{
    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId d2h = g.addResource("D2H");
    const TaskId bwd = g.addTask(gpu, 0.020, "bwd L0", {});
    const TaskId copy = g.addTask(d2h, 0.010, "d2h bucket 0", {bwd});
    g.addTask(gpu, 0.005, "cast params", {copy});

    EnergyInputs inputs;
    inputs.resources = {{700.0, 75.0, 0.0}, {15.0, 5.0, 1e-11}};
    inputs.task_bytes = {0.0, 1e9, 0.0};
    inputs.background.emplace_back("DDR refresh", 60.0);

    const Schedule s = Scheduler().run(g);
    expectEnergyInvariants(g, s, inputs);

    // Spot-check the numbers themselves: GPU busy 25 ms at 700 W, D2H
    // moves 1 GB at 10 pJ/B on top of 10 ms at 15 W.
    const ScheduleProfile prof = profileSchedule(g, s);
    const EnergyProfile e = attributeEnergy(g, s, prof, inputs);
    EXPECT_NEAR(e.resources[0].busy_j, 700.0 * 0.025, 1e-9);
    EXPECT_NEAR(e.resources[1].busy_j, 15.0 * 0.010, 1e-9);
    EXPECT_NEAR(e.resources[1].transfer_j, 1e-11 * 1e9, 1e-9);
    EXPECT_NEAR(e.background_j, 60.0 * s.makespan, 1e-9);
    EXPECT_NEAR(e.task_j[1], 15.0 * 0.010 + 1e-11 * 1e9, 1e-9);
}

TEST(Energy, ShortInputVectorsMeterAsZero)
{
    // Missing resource powers and task bytes are zero, not UB.
    TaskGraph g;
    const ResourceId a = g.addResource("A");
    g.addResource("B");
    g.addTask(a, 0.010, "fwd", {});
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    EnergyInputs inputs; // everything empty
    const EnergyProfile e = attributeEnergy(g, s, prof, inputs);
    ASSERT_TRUE(e.valid);
    EXPECT_DOUBLE_EQ(e.total_j, 0.0);
    EXPECT_DOUBLE_EQ(e.avg_w, 0.0);
}

TEST(Energy, RandomizedGraphsHoldTheConservationInvariants)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        Rng rng(seed * 977);
        const TaskGraph g = randomUnitCapacityGraph(
            seed, 2 + seed % 5, 20 + (seed * 13) % 60);
        const EnergyInputs inputs = meteredInputs(g, rng);
        const Schedule s = Scheduler().run(g);
        expectEnergyInvariants(g, s, inputs);
    }
}

TEST(Energy, ProfileJsonCarriesTheEnergySubtree)
{
    Rng rng(7);
    const TaskGraph g = randomUnitCapacityGraph(7, 3, 30);
    const EnergyInputs inputs = meteredInputs(g, rng);
    const Schedule s = Scheduler().run(g);
    const ScheduleProfile prof = profileSchedule(g, s);
    const EnergyProfile e = attributeEnergy(g, s, prof, inputs);

    const std::string json = profileToJson(prof, g, s, 8, &e);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json, doc, &error)) << error;
    const JsonValue *energy = doc.find("energy");
    ASSERT_NE(energy, nullptr);
    EXPECT_NEAR(energy->find("total_j")->number(), e.total_j,
                1e-9 * std::max(e.total_j, 1.0));
    const JsonValue *phases = energy->find("phases");
    ASSERT_NE(phases, nullptr);
    double phase_sum = 0.0;
    for (const JsonValue &phase : phases->items())
        phase_sum += phase.find("joules")->number();
    EXPECT_NEAR(phase_sum, e.active_j,
                1e-9 * std::max(e.active_j, 1.0));
    const JsonValue *resources = energy->find("resources");
    ASSERT_NE(resources, nullptr);
    EXPECT_EQ(resources->items().size(), g.resourceCount());

    // Without the energy argument the subtree is absent (and for
    // readers of old documents, absent means "no attribution").
    const std::string plain = profileToJson(prof, g, s, 8);
    JsonValue plain_doc;
    ASSERT_TRUE(JsonValue::parse(plain, plain_doc, &error)) << error;
    EXPECT_EQ(plain_doc.find("energy"), nullptr);
}

} // namespace
} // namespace so::sim
