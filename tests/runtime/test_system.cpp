#include "runtime/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/superoffload.h"
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

/**
 * A system that fits every micro-batch up to a threshold (one without
 * checkpointing, one with) and records each GPU-memory probe, so the
 * memory screen can be compared with a copy of its old walk.
 */
class ThresholdSystem : public TrainingSystem
{
  public:
    ThresholdSystem(std::uint32_t per_rank, std::uint32_t plain_limit,
                    std::uint32_t ckpt_limit)
        : per_rank_(per_rank), plain_limit_(plain_limit),
          ckpt_limit_(ckpt_limit)
    {
    }

    std::string name() const override { return "threshold"; }

    /** Every (micro-batch, checkpointing) gpuBytes was asked for. */
    mutable std::vector<std::pair<std::uint32_t, bool>> probes;

    /**
     * The screen as it was: every micro-batch from the per-rank batch
     * down to 1, skipping those that do not divide it.
     */
    std::vector<SearchCandidate>
    referenceScreen(const TrainSetup &setup) const
    {
        auto largest_micro = [&](bool ckpt) -> std::uint32_t {
            SearchCandidate c;
            c.checkpointing = ckpt;
            for (std::uint32_t micro = per_rank_; micro >= 1; --micro) {
                if (per_rank_ % micro != 0)
                    continue;
                c.micro_batch = micro;
                if (gpuBytes(setup, c) <= gpuCapacity(setup))
                    return micro;
            }
            return 0;
        };
        const std::uint32_t plain = largest_micro(false);
        const std::uint32_t ckpt = largest_micro(true);
        std::vector<SearchCandidate> out;
        for (const auto &[micro, with_ckpt] :
             {std::pair{plain, false}, std::pair{ckpt, true}}) {
            if (micro == 0 || (with_ckpt && ckpt <= plain))
                continue;
            SearchCandidate c;
            c.micro_batch = micro;
            c.accum_steps = per_rank_ / micro;
            c.checkpointing = with_ckpt;
            out.push_back(c);
        }
        return out;
    }

  protected:
    double gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const override
    {
        probes.emplace_back(cand.micro_batch, cand.checkpointing);
        const std::uint32_t limit =
            cand.checkpointing ? ckpt_limit_ : plain_limit_;
        return cand.micro_batch <= limit ? 0.0 : 2.0 * gpuCapacity(setup);
    }
    double cpuBytes(const TrainSetup &,
                    const SearchCandidate &) const override
    {
        return 0.0;
    }
    // Only the device screen asks gpuBytes; every other tier fits.
    double tierBytes(const TrainSetup &, const SearchCandidate &,
                     const hw::MemoryTier &) const override
    {
        return 0.0;
    }
    std::uint32_t perRankBatch(const TrainSetup &) const override
    {
        return per_rank_;
    }
    IterationResult simulate(const TrainSetup &,
                             const SearchCandidate &) const override
    {
        return {};
    }

  private:
    std::uint32_t per_rank_;
    std::uint32_t plain_limit_;
    std::uint32_t ckpt_limit_;
};

TEST(MemoryScreen, DivisorWalkMatchesTheEveryIntegerLoop)
{
    const TrainSetup setup = setupFor("5B");
    // (plain, checkpointed) thresholds: nothing fits, only
    // checkpointing fits, checkpointing unlocks more, no more, less,
    // and everything fits.
    const std::pair<std::uint32_t, std::uint32_t> kLimits[] = {
        {0, 0}, {0, 1}, {1, 3}, {3, 3}, {7, 64}, {100, 50}, {5000, 5000}};
    for (std::uint32_t per_rank = 1; per_rank <= 4096; ++per_rank) {
        for (const auto &[plain, ckpt] : kLimits) {
            const ThresholdSystem sys(per_rank, plain, ckpt);
            const std::vector<SearchCandidate> got =
                sys.enumerateCandidates(setup);
            const auto probes = sys.probes;
            sys.probes.clear();
            const std::vector<SearchCandidate> want =
                sys.referenceScreen(setup);
            // A screen that finds nothing runs again on the fallback
            // variant, which is the same one here.
            auto want_probes = sys.probes;
            if (want.empty())
                want_probes.insert(want_probes.end(), sys.probes.begin(),
                                   sys.probes.end());
            // The same gpuBytes calls in the same order, so every
            // candidate is the one the old walk picked.
            ASSERT_EQ(probes, want_probes)
                << per_rank << " " << plain << " " << ckpt;
            ASSERT_EQ(got.size(), want.size()) << per_rank;
            for (std::size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].micro_batch, want[i].micro_batch);
                EXPECT_EQ(got[i].accum_steps, want[i].accum_steps);
                EXPECT_EQ(got[i].checkpointing, want[i].checkpointing);
            }
        }
    }
}

TEST(MemoryScreen, LargestUint32BatchScreensInUnderASecond)
{
    // 4294967295 = 3 * 5 * 17 * 257 * 65537: the old walk tested every
    // integer below it (45 s for SuperOffload, 11 s for DDP). The first
    // candidates are the ones it found.
    TrainSetup setup = setupFor("5B");
    setup.global_batch = 4294967295u;
    const core::SuperOffloadSystem superoffload;
    const SystemPtr ddp = makeBaseline("ddp");
    const struct
    {
        const TrainingSystem *system;
        std::uint32_t micro;
    } kCases[] = {{&superoffload, 17}, {ddp.get(), 1}};
    for (const auto &c : kCases) {
        const auto start = std::chrono::steady_clock::now();
        const std::vector<SearchCandidate> cands =
            c.system->enumerateCandidates(setup);
        const double seconds = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        ASSERT_FALSE(cands.empty()) << c.system->name();
        EXPECT_EQ(cands.front().micro_batch, c.micro) << c.system->name();
        EXPECT_EQ(cands.front().accum_steps, 4294967295u / c.micro)
            << c.system->name();
        EXPECT_FALSE(cands.front().checkpointing) << c.system->name();
        EXPECT_LT(seconds, 1.0) << c.system->name();
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
