/**
 * @file
 * Runtime-level energy metering contract (docs/ENERGY.md): every
 * feasible result carries a valid EnergySummary; capture_profile adds
 * phase and idle-cause splits that conserve the totals; the energy
 * subtree in result JSON is bit-identical across SweepEngine job
 * counts; power overrides change the metering and are part of the
 * sweep fingerprint.
 */
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/superoffload.h"
#include "hw/presets.h"
#include "model/config.h"
#include "runtime/registry.h"
#include "runtime/result_json.h"
#include "runtime/sweep.h"
#include "runtime/system.h"

namespace so::runtime {
namespace {

TrainSetup
setupFor(const std::string &model, bool profile = false)
{
    TrainSetup setup;
    setup.cluster = hw::gh200Single();
    setup.model = model::modelPreset(model);
    setup.global_batch = 8;
    setup.seq = 1024;
    setup.capture_profile = profile;
    return setup;
}

void
expectNearRel(double actual, double expected)
{
    EXPECT_NEAR(actual, expected,
                1e-9 * std::max(std::abs(expected), 1.0));
}

TEST(RuntimeEnergy, FeasibleResultsAlwaysCarryValidEnergy)
{
    // No capture_profile: the profile-free meter must still fill the
    // totals, the per-resource splits, and the per-iteration figures.
    const core::SuperOffloadSystem sys;
    const IterationResult res = sys.run(setupFor("1B"));
    ASSERT_TRUE(res.feasible);
    ASSERT_TRUE(res.energy.valid);
    EXPECT_GT(res.energy.total_j, 0.0);
    EXPECT_GT(res.energy.avg_w, 0.0);
    EXPECT_FALSE(res.energy.resources.empty());
    EXPECT_TRUE(res.energy.phases.empty());

    expectNearRel(res.energy.total_j, res.energy.active_j +
                                          res.energy.idle_j +
                                          res.energy.background_j);
    expectNearRel(res.energy.iter_j, res.energy.avg_w * res.iter_time);

    // token_j = iter_j × chips / (global_batch × seq).
    const TrainSetup setup = setupFor("1B");
    const double tokens =
        static_cast<double>(setup.global_batch) * setup.seq;
    expectNearRel(res.energy.token_j,
                  res.energy.iter_j *
                      setup.cluster.totalSuperchips() / tokens);
}

TEST(RuntimeEnergy, CaptureProfileAddsConservingSplits)
{
    const core::SuperOffloadSystem sys;
    const IterationResult cheap = sys.run(setupFor("1B"));
    const IterationResult full = sys.run(setupFor("1B", true));
    ASSERT_TRUE(full.feasible);
    ASSERT_TRUE(full.energy.valid);

    // The full attribution must reproduce the cheap totals: both read
    // the same schedule, only the splitting differs.
    expectNearRel(full.energy.active_j, cheap.energy.active_j);
    expectNearRel(full.energy.idle_j, cheap.energy.idle_j);
    expectNearRel(full.energy.total_j, cheap.energy.total_j);

    // Phases appear and sum to the active joules.
    ASSERT_FALSE(full.energy.phases.empty());
    double phase_sum = 0.0;
    for (const auto &[phase, joules] : full.energy.phases)
        phase_sum += joules;
    expectNearRel(phase_sum, full.energy.active_j);

    // Per resource: cause joules partition idle_j, and busy+transfer
    // sums rebuild active_j.
    double active = 0.0, idle = 0.0;
    for (const auto &re : full.energy.resources) {
        expectNearRel(re.idle_dependency_j + re.idle_contention_j +
                          re.idle_tail_j,
                      re.idle_j);
        active += re.busy_j + re.transfer_j;
        idle += re.idle_j;
    }
    expectNearRel(active, full.energy.active_j);
    expectNearRel(idle, full.energy.idle_j);
}

TEST(RuntimeEnergy, ResultJsonCarriesTheEnergySubtree)
{
    const core::SuperOffloadSystem sys;
    const IterationResult res = sys.run(setupFor("1B", true));
    const std::string json = toJson(res);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(json, doc, &error)) << error;
    const JsonValue *energy = doc.find("energy");
    ASSERT_NE(energy, nullptr);
    expectNearRel(energy->find("total_j")->number(),
                  res.energy.total_j);
    expectNearRel(energy->find("iter_j")->number(), res.energy.iter_j);
    ASSERT_NE(energy->find("phases"), nullptr);
    ASSERT_NE(energy->find("resources"), nullptr);
    // The profile document embeds its own energy subtree too.
    JsonValue profile_doc;
    ASSERT_TRUE(
        JsonValue::parse(res.profile_json, profile_doc, &error))
        << error;
    EXPECT_NE(profile_doc.find("energy"), nullptr);
}

TEST(RuntimeEnergy, PowerOverridesRescaleTheMetering)
{
    const core::SuperOffloadSystem sys;
    TrainSetup loud = setupFor("1B");
    loud.power.gpu_busy_w = 1400.0;
    loud.power.gpu_idle_w = 150.0;
    const IterationResult base = sys.run(setupFor("1B"));
    const IterationResult scaled = sys.run(loud);
    ASSERT_TRUE(base.feasible);
    ASSERT_TRUE(scaled.feasible);
    // Same schedule, hotter GPU: strictly more joules.
    EXPECT_EQ(base.iter_time, scaled.iter_time);
    EXPECT_GT(scaled.energy.total_j, base.energy.total_j);
}

TEST(RuntimeEnergy, EnergyJsonBitIdenticalAcrossSweepJobs)
{
    auto declare = [](SweepEngine &engine,
                      const core::SuperOffloadSystem &sys) {
        engine.add(sys, setupFor("1B", true));
        TrainSetup tuned = setupFor("1B", true);
        tuned.power.cpu_busy_w = 300.0;
        engine.add(sys, tuned);
    };
    const core::SuperOffloadSystem sys;
    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    SweepEngine serial(serial_opts);
    SweepEngine parallel(parallel_opts);
    declare(serial, sys);
    declare(parallel, sys);
    serial.run();
    parallel.run();
    ASSERT_EQ(serial.cells().size(), parallel.cells().size());
    for (std::size_t i = 0; i < serial.cells().size(); ++i)
        EXPECT_EQ(toJson(serial.result(i)), toJson(parallel.result(i)))
            << "cell " << i;
}

TEST(RuntimeEnergy, PowerOverridesAreFingerprintedBySweeps)
{
    // Two cells identical except for a power override must not share
    // a cache slot: their energies differ, their times agree.
    const core::SuperOffloadSystem sys;
    SweepEngine engine;
    engine.add(sys, setupFor("1B"));
    TrainSetup tuned = setupFor("1B");
    tuned.power.gpu_busy_w = 1400.0;
    engine.add(sys, tuned);
    engine.run();
    ASSERT_EQ(engine.cells().size(), 2u);
    const IterationResult &a = engine.result(0);
    const IterationResult &b = engine.result(1);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    EXPECT_EQ(a.iter_time, b.iter_time);
    EXPECT_NE(a.energy.total_j, b.energy.total_j);
}

} // namespace
} // namespace so::runtime
