/**
 * @file
 * SweepEngine contract tests: parallel evaluation is bit-identical to
 * serial, the fingerprint cache returns the exact cold result, worker
 * exceptions surface from run() (which stays retryable), and duplicate
 * cells inside one batch are evaluated once.
 */
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/superoffload.h"
#include "hw/presets.h"
#include "model/config.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"
#include "runtime/system.h"

namespace so::runtime {
namespace {

TrainSetup
setupFor(const hw::ClusterSpec &cluster, const std::string &model,
         std::uint32_t batch = 8, std::uint32_t seq = 1024)
{
    TrainSetup setup;
    setup.cluster = cluster;
    setup.model = model::modelPreset(model);
    setup.global_batch = batch;
    setup.seq = seq;
    return setup;
}

/** Field-by-field bit-exact comparison of two results. */
void
expectSameResult(const IterationResult &a, const IterationResult &b,
                 const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.infeasible_reason, b.infeasible_reason);
    EXPECT_EQ(a.iter_time, b.iter_time);
    EXPECT_EQ(a.micro_batch, b.micro_batch);
    EXPECT_EQ(a.accum_steps, b.accum_steps);
    EXPECT_EQ(a.activation_checkpointing, b.activation_checkpointing);
    EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
    EXPECT_EQ(a.cpu_utilization, b.cpu_utilization);
    EXPECT_EQ(a.link_utilization, b.link_utilization);
    EXPECT_EQ(a.memory.gpu_bytes, b.memory.gpu_bytes);
    EXPECT_EQ(a.memory.cpu_bytes, b.memory.cpu_bytes);
    EXPECT_EQ(a.memory.nvme_bytes, b.memory.nvme_bytes);
    EXPECT_EQ(a.notes, b.notes);
    ASSERT_EQ(a.extras.size(), b.extras.size());
    for (std::size_t i = 0; i < a.extras.size(); ++i) {
        EXPECT_EQ(a.extras[i].first, b.extras[i].first);
        EXPECT_EQ(a.extras[i].second, b.extras[i].second);
    }
    EXPECT_EQ(a.gantt, b.gantt);
}

/**
 * Minimal feasible system with an invocation counter, for cache and
 * dedupe accounting. gpuBytes 0 means exactly one candidate survives
 * the screen (the full per-GPU batch, no checkpointing fallback).
 */
class CountingSystem : public TrainingSystem
{
  public:
    std::string name() const override { return "counting"; }
    mutable std::atomic<int> simulate_calls{0};

  protected:
    double gpuBytes(const TrainSetup &,
                    const SearchCandidate &) const override
    {
        return 0.0;
    }
    double cpuBytes(const TrainSetup &,
                    const SearchCandidate &) const override
    {
        return 0.0;
    }
    IterationResult simulate(const TrainSetup &setup,
                             const SearchCandidate &cand) const override
    {
        ++simulate_calls;
        IterationResult res;
        res.iter_time = 1.0 / static_cast<double>(cand.micro_batch);
        res.gpu_utilization = 0.5;
        res.notes = "seq=" + std::to_string(setup.seq);
        return res;
    }
};

/** System whose simulations throw until told otherwise. */
class ThrowingSystem : public TrainingSystem
{
  public:
    std::string name() const override { return "throwing"; }
    mutable std::atomic<bool> should_throw{true};

  protected:
    double gpuBytes(const TrainSetup &,
                    const SearchCandidate &) const override
    {
        return 0.0;
    }
    double cpuBytes(const TrainSetup &,
                    const SearchCandidate &) const override
    {
        return 0.0;
    }
    IterationResult simulate(const TrainSetup &,
                             const SearchCandidate &) const override
    {
        if (should_throw)
            throw std::runtime_error("boom");
        IterationResult res;
        res.iter_time = 1.0;
        return res;
    }
};

/**
 * The headline determinism guarantee: a sweep over every registered
 * baseline plus SuperOffload produces bit-identical results whether it
 * runs on one thread or many. The grid holds no duplicate cells, so
 * every compared result is a cold evaluation.
 */
TEST(Sweep, ParallelMatchesSerialAcrossAllSystems)
{
    const hw::ClusterSpec single = hw::gh200Single();
    const hw::ClusterSpec quad = hw::gh200ClusterOf(4);

    std::vector<SystemPtr> systems;
    for (const std::string &name : baselineNames())
        systems.push_back(makeBaseline(name));
    core::SuperOffloadSystem so_sys;

    SweepOptions serial_opts;
    serial_opts.jobs = 1;
    SweepOptions parallel_opts;
    parallel_opts.jobs = 4;

    SweepEngine serial(serial_opts);
    SweepEngine parallel(parallel_opts);
    auto declare = [&](SweepEngine &engine) {
        for (const auto &sys : systems) {
            engine.add(*sys, setupFor(single, "1B"));
            engine.add(*sys, setupFor(quad, "3B", 8, 2048));
        }
        engine.add(so_sys, setupFor(single, "1B"));
        engine.add(so_sys, setupFor(quad, "3B", 8, 2048));
    };
    declare(serial);
    declare(parallel);
    serial.run();
    parallel.run();
    EXPECT_EQ(serial.cacheHits(), 0u);
    EXPECT_EQ(parallel.cacheHits(), 0u);

    ASSERT_EQ(serial.cells().size(), parallel.cells().size());
    for (std::size_t i = 0; i < serial.cells().size(); ++i) {
        const std::string what = serial.cells()[i].system->name() +
                                 " cell " + std::to_string(i);
        expectSameResult(serial.result(i), parallel.result(i), what);
    }
}

/**
 * The same logical work at any --jobs: what the engine itself records
 * for a full-system sweep — the rendered cells and the cache traffic —
 * is identical between a 1-thread and a 4-thread run.
 */
TEST(Sweep, StableMetricsAreIdenticalAcrossJobCounts)
{
    const hw::ClusterSpec single = hw::gh200Single();
    std::vector<SystemPtr> systems;
    for (const std::string &name : baselineNames())
        systems.push_back(makeBaseline(name));
    core::SuperOffloadSystem so_sys;

    struct Record
    {
        std::string cells;
        std::size_t hits = 0;
        std::size_t misses = 0;
    };
    auto sweep_record = [&](std::size_t jobs) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepEngine engine(opts);
        for (const auto &sys : systems)
            engine.add(*sys, setupFor(single, "1B"));
        engine.add(so_sys, setupFor(single, "1B"));
        // A duplicate cell so the cache-hit counter registers too.
        engine.add(so_sys, setupFor(single, "1B"));
        engine.run();
        JsonWriter json;
        engine.writeCells(json);
        return Record{json.str(), engine.cacheHits(),
                      engine.cacheMisses()};
    };

    const Record serial = sweep_record(1);
    const Record parallel = sweep_record(4);
    EXPECT_EQ(serial.cells, parallel.cells);
    EXPECT_EQ(serial.hits, parallel.hits);
    EXPECT_EQ(serial.misses, parallel.misses);
    // Sanity: the duplicate was served from the cache, every other
    // cell was simulated.
    EXPECT_EQ(serial.hits, 1u);
    EXPECT_EQ(serial.misses, systems.size() + 1);
}

TEST(Sweep, JobsZeroResolvesToHardwareConcurrency)
{
    SweepOptions opts;
    opts.jobs = 0;
    SweepEngine engine(opts);
    EXPECT_GE(engine.jobs(), 1u);
}

TEST(Sweep, DuplicateCellsInOneBatchEvaluateOnce)
{
    CountingSystem sys;
    SweepOptions opts;
    opts.jobs = 2;
    SweepEngine engine(opts);
    const TrainSetup setup = setupFor(hw::gh200Single(), "1B");
    engine.add(sys, setup);
    engine.add(sys, setup);
    engine.add(sys, setup);
    engine.run();

    EXPECT_EQ(sys.simulate_calls.load(), 1);
    EXPECT_EQ(engine.cacheMisses(), 1u);
    EXPECT_EQ(engine.cacheHits(), 2u);
    expectSameResult(engine.result(0), engine.result(1), "dup 0 vs 1");
    expectSameResult(engine.result(0), engine.result(2), "dup 0 vs 2");
}

TEST(Sweep, CacheServesLaterBatchesWithoutReevaluation)
{
    CountingSystem sys;
    SweepEngine engine;
    const TrainSetup setup = setupFor(hw::gh200Single(), "1B");
    engine.add(sys, setup);
    engine.run();
    const int cold_calls = sys.simulate_calls.load();
    EXPECT_EQ(cold_calls, 1);

    // Same cell added after the first run: served from cache, and the
    // warm result is bit-identical to the cold one.
    engine.add(sys, setup);
    engine.run();
    EXPECT_EQ(sys.simulate_calls.load(), cold_calls);
    EXPECT_EQ(engine.cacheHits(), 1u);
    EXPECT_TRUE(engine.cells()[1].from_cache);
    expectSameResult(engine.result(0), engine.result(1), "cold vs warm");

    // A genuinely different setup misses.
    engine.add(sys, setupFor(hw::gh200Single(), "1B", 8, 2048));
    engine.run();
    EXPECT_EQ(sys.simulate_calls.load(), cold_calls + 1);
    EXPECT_EQ(engine.cacheMisses(), 2u);
}

TEST(Sweep, EvaluateIsMemoized)
{
    CountingSystem sys;
    SweepEngine engine;
    const TrainSetup setup = setupFor(hw::gh200Single(), "1B");
    const IterationResult cold = engine.evaluate(sys, setup);
    const IterationResult warm = engine.evaluate(sys, setup);
    EXPECT_EQ(sys.simulate_calls.load(), 1);
    EXPECT_EQ(engine.cacheHits(), 1u);
    EXPECT_EQ(engine.cacheMisses(), 1u);
    expectSameResult(cold, warm, "evaluate memo");
}

TEST(Sweep, SameSetupDifferentSystemsDoNotCollide)
{
    CountingSystem a;
    CountingSystem b;
    SweepEngine engine;
    const TrainSetup setup = setupFor(hw::gh200Single(), "1B");
    engine.add(a, setup);
    engine.add(b, setup);
    engine.run();
    // Identical setups under distinct system objects are distinct
    // cache entries (the fingerprint includes the system identity).
    EXPECT_EQ(a.simulate_calls.load(), 1);
    EXPECT_EQ(b.simulate_calls.load(), 1);
    EXPECT_EQ(engine.cacheMisses(), 2u);
}

TEST(Sweep, WorkerExceptionPropagatesAndRunIsRetryable)
{
    ThrowingSystem sys;
    SweepOptions opts;
    opts.jobs = 4;
    SweepEngine engine(opts);
    engine.add(sys, setupFor(hw::gh200Single(), "1B"));
    engine.add(sys, setupFor(hw::gh200Single(), "1B", 8, 2048));
    EXPECT_THROW(engine.run(), std::runtime_error);
    EXPECT_FALSE(engine.cells()[0].evaluated);
    EXPECT_FALSE(engine.cells()[1].evaluated);

    // The failed batch stays pending; a later run() picks it up.
    sys.should_throw = false;
    engine.run();
    EXPECT_TRUE(engine.cells()[0].evaluated);
    EXPECT_TRUE(engine.cells()[1].evaluated);
    EXPECT_EQ(engine.result(0).iter_time, 1.0);
}

TEST(Sweep, ExceptionPropagatesSeriallyToo)
{
    ThrowingSystem sys;
    SweepOptions opts;
    opts.jobs = 1;
    SweepEngine engine(opts);
    engine.add(sys, setupFor(hw::gh200Single(), "1B"));
    EXPECT_THROW(engine.run(), std::runtime_error);
    EXPECT_FALSE(engine.cells()[0].evaluated);
}

TEST(Sweep, TagsAndJsonDocument)
{
    CountingSystem sys;
    SweepOptions opts;
    opts.name = "unit";
    SweepEngine engine(opts);
    engine.add(sys, setupFor(hw::gh200Single(), "1B"), "alpha");
    engine.run();
    EXPECT_EQ(engine.cells()[0].tag, "alpha");

    const std::string doc = engine.json();
    EXPECT_NE(doc.find("\"sweep\":\"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"tag\":\"alpha\""), std::string::npos);
    EXPECT_NE(doc.find("\"cache_misses\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"iter_time_s\""), std::string::npos);
}

} // namespace
} // namespace so::runtime
