#include "runtime/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/units.h"
#include "runtime/registry.h"

namespace so::runtime {
namespace {

TrainSetup
setupFor(const char *model, std::uint32_t chips = 1,
         std::uint32_t batch = 8)
{
    TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(chips);
    setup.model = model::modelPreset(model);
    setup.global_batch = batch;
    setup.seq = 1024;
    return setup;
}

TEST(TrainSetup, PerGpuBatchDividesGlobal)
{
    EXPECT_EQ(setupFor("5B", 1, 8).perGpuBatch(), 8u);
    EXPECT_EQ(setupFor("5B", 4, 16).perGpuBatch(), 4u);
    EXPECT_EQ(setupFor("5B", 16, 128).perGpuBatch(), 8u);
    // Clamped to at least 1.
    EXPECT_EQ(setupFor("5B", 16, 4).perGpuBatch(), 1u);
}

TEST(MemoryReport, FitPredicates)
{
    MemoryReport report;
    report.gpu_bytes = 50.0;
    report.gpu_capacity = 96.0;
    report.cpu_bytes = 500.0;
    report.cpu_capacity = 432.0;
    EXPECT_TRUE(report.fitsGpu());
    EXPECT_FALSE(report.fitsCpu());
    EXPECT_FALSE(report.fits());
}

TEST(IterationResult, TflopsExcludesRecompute)
{
    IterationResult res;
    res.feasible = true;
    res.iter_time = 1.0;
    res.flops.fwd_gemm = 1e12;
    res.flops.bwd_gemm = 2e12;
    res.flops.recompute_gemm = 1e12;
    EXPECT_DOUBLE_EQ(res.tflopsPerGpu(), 3.0);
    EXPECT_DOUBLE_EQ(res.mfuAgainst(10e12), 0.3);
}

TEST(IterationResult, InfeasibleReportsZeroThroughput)
{
    IterationResult res;
    res.iter_time = 1.0;
    res.flops.fwd_gemm = 1e12;
    EXPECT_DOUBLE_EQ(res.tflopsPerGpu(), 0.0);
}

TEST(System, InfeasibleNamesTheBindingResource)
{
    // A 200B model cannot fit a single superchip under any system.
    auto ddp = makeBaseline("ddp");
    const IterationResult res = ddp->run(setupFor("200B"));
    EXPECT_FALSE(res.feasible);
    EXPECT_NE(res.infeasible_reason.find("GPU memory"),
              std::string::npos);
}

TEST(System, CpuBoundInfeasibilityNamesHostDram)
{
    // ZeRO-Offload needs 16P/N of host DRAM; 80B on one chip exceeds
    // the 480 GB Grace memory before the GPU check even matters.
    auto zo = makeBaseline("zero-offload");
    const IterationResult res = zo->run(setupFor("80B"));
    EXPECT_FALSE(res.feasible);
    EXPECT_NE(res.infeasible_reason.find("host DRAM"),
              std::string::npos);
}

TEST(System, FeasibleResultIsFullyPopulated)
{
    auto zo = makeBaseline("zero-offload");
    const IterationResult res = zo->run(setupFor("5B"));
    ASSERT_TRUE(res.feasible);
    EXPECT_GT(res.iter_time, 0.0);
    EXPECT_GE(res.micro_batch, 1u);
    EXPECT_GE(res.accum_steps, 1u);
    EXPECT_GT(res.gpu_utilization, 0.0);
    EXPECT_LE(res.gpu_utilization, 1.0 + 1e-9);
    EXPECT_GT(res.memory.gpu_bytes, 0.0);
    EXPECT_TRUE(res.memory.fits());
    EXPECT_GT(res.flops.modelFlops(), 0.0);
    EXPECT_FALSE(res.gantt.empty());
}

TEST(System, MicroBatchTimesAccumEqualsPerGpuBatch)
{
    for (const char *name : {"ddp", "zero-offload", "zero-infinity"}) {
        auto sys = makeBaseline(name);
        const TrainSetup setup = setupFor("5B", 1, 8);
        const IterationResult res = sys->run(setup);
        if (!res.feasible)
            continue;
        EXPECT_EQ(res.micro_batch * res.accum_steps, 8u) << name;
    }
}

TEST(System, RegistryExposesAllBaselines)
{
    const auto names = baselineNames();
    EXPECT_EQ(names.size(), 14u);
    for (const auto &name : names) {
        auto sys = makeBaseline(name);
        ASSERT_NE(sys, nullptr) << name;
        EXPECT_FALSE(sys->name().empty());
    }
}

/** A result scoring @p tflops per GPU, named @p name in its notes. */
IterationResult
scored(double tflops, const std::string &name, bool feasible = true)
{
    IterationResult res;
    res.feasible = feasible;
    res.iter_time = 1.0;
    res.flops.fwd_gemm = tflops * kTFLOPS;
    res.notes = name;
    return res;
}

/**
 * The fold's winner does not depend on arrival order: fed in every
 * permutation, each cell's CellLead ends on the result selectBest picks
 * from the enumeration-ordered list, and that is the first-wins argmax.
 */
TEST(CellLead, EveryArrivalOrderPicksSelectBestsWinner)
{
    auto sys = makeBaseline("ddp");
    const TrainSetup setup = setupFor("1B");
    struct Case
    {
        std::vector<IterationResult> results;
        const char *winner;
    };
    const std::vector<Case> cases = {
        // Exact ties at the top (r2, r4, r6) and in the middle (r1, r3),
        // a zero score, and an infeasible result whose flops would win.
        {{scored(0.0, "r0"), scored(2.0, "r1"), scored(5.0, "r2"),
          scored(2.0, "r3"), scored(5.0, "r4"), scored(9.0, "r5", false),
          scored(5.0, "r6")},
         "r2"},
        // Nothing scores: the first result keeps the lead.
        {{scored(0.0, "z0"), scored(7.0, "z1", false), scored(0.0, "z2"),
          scored(3.0, "z3", false)},
         "z0"},
        // A strictly better late result beats an earlier tie group.
        {{scored(1.0, "t0"), scored(1.0, "t1"), scored(1.0, "t2"),
          scored(1.5, "t3"), scored(1.5, "t4")},
         "t3"},
    };
    for (const Case &c : cases) {
        const std::vector<SearchCandidate> cands(c.results.size());
        EXPECT_EQ(sys->selectBest(setup, cands, c.results).notes,
                  c.winner);
        std::vector<std::size_t> order(c.results.size());
        std::iota(order.begin(), order.end(), 0);
        do {
            CellLead lead;
            for (std::size_t i : order)
                lead.offer(i, c.results[i]);
            EXPECT_EQ(sys->selectBest(setup, std::move(lead)).notes,
                      c.winner);
        } while (std::next_permutation(order.begin(), order.end()));
    }
}

TEST(CellLead, EmptyLeadIsTheInfeasibleDiagnosis)
{
    auto ddp = makeBaseline("ddp");
    const TrainSetup setup = setupFor("200B");
    const IterationResult folded = ddp->selectBest(setup, CellLead{});
    EXPECT_FALSE(folded.feasible);
    EXPECT_EQ(folded.infeasible_reason,
              ddp->selectBest(setup, {}, {}).infeasible_reason);
    EXPECT_EQ(folded.infeasible_reason, ddp->run(setup).infeasible_reason);
}

TEST(CellLeadDeath, NanScoreIsRejected)
{
    IterationResult res = scored(1.0, "nan");
    res.flops.fwd_gemm = std::numeric_limits<double>::quiet_NaN();
    CellLead lead;
    EXPECT_DEATH(lead.offer(3, res), "candidate 3 scored NaN");
}

TEST(SystemDeath, UnknownBaselineIsFatal)
{
    EXPECT_EXIT(makeBaseline("does-not-exist"),
                ::testing::ExitedWithCode(1), "unknown baseline");
}

} // namespace
} // namespace so::runtime
