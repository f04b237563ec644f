#include "runtime/builder.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace so::runtime {
namespace {

TrainSetup
gh200Setup()
{
    TrainSetup setup;
    setup.cluster = hw::gh200Single();
    setup.model = model::modelPreset("5B");
    setup.global_batch = 8;
    setup.seq = 1024;
    return setup;
}

TEST(IterBuilder, RegistersStandardResources)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    EXPECT_EQ(b.graph().resourceCount(), 7u);
    EXPECT_NE(b.gpu(), b.cpu());
    EXPECT_NE(b.h2d(), b.d2h());
    EXPECT_NE(b.nvme(), b.nic());
}

TEST(IterBuilder, GemmTimePenalizesSmallMicroBatches)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const double flops = 1e14;
    const double big = b.gemmTime(flops, 8.0 * 1024.0);
    const double small = b.gemmTime(flops, 1.0 * 1024.0);
    EXPECT_GT(small, 1.5 * big);
}

TEST(IterBuilder, AttentionFasterThanGemmPerFlop)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    EXPECT_LT(b.attnTime(1e14), b.gemmTime(1e14, 8192.0));
}

TEST(IterBuilder, TransferTimesSymmetricPerDirection)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    EXPECT_DOUBLE_EQ(b.h2dTime(kGB), b.d2hTime(kGB));
}

TEST(IterBuilder, UnpinnedSlowerThanPinned)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    EXPECT_GT(b.h2dTime(kGB, false), 2.0 * b.h2dTime(kGB, true));
}

TEST(IterBuilder, ChunkedTransferSlowerThanBulk)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const double bytes = 1.0 * kGB;
    const double bulk = b.h2dTime(bytes);
    const double chunked = b.chunkedTransferTime(bytes, kMiB);
    EXPECT_GT(chunked, 2.0 * bulk);
}

TEST(IterBuilder, ChunkedTransferOverheadAccumulates)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const double bytes = 100.0 * kMiB;
    const double no_ovh = b.chunkedTransferTime(bytes, kMiB, true, 0.0);
    const double with_ovh =
        b.chunkedTransferTime(bytes, kMiB, true, 100e-6);
    EXPECT_NEAR(with_ovh - no_ovh, 100.0 * 100e-6, 1e-6);
}

TEST(IterBuilder, NumaRemoteBindingSlowsHostTransfers)
{
    TrainSetup colocated = gh200Setup();
    TrainSetup remote = gh200Setup();
    remote.binding = hw::NumaBinding::Remote;
    IterBuilder b1(colocated), b2(remote);
    // §4.7: mis-bound processes traverse the inter-Superchip fabric.
    EXPECT_GT(b2.h2dTime(kGB), 5.0 * b1.h2dTime(kGB));
}

TEST(IterBuilder, CastCheaperOnGpuThanCpu)
{
    // The heart of SAC (§4.5): HBM is ~8x faster than DDR.
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    EXPECT_LT(b.gpuCastTime(1e9), b.cpuCastTime(1e9) / 4.0);
}

TEST(IterBuilder, FinishComputesUtilizations)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const auto a = b.onGpu("work", 1.0);
    b.onCpu("tail", 1.0, {a});
    const IterationResult res = b.finish(model::IterationFlops{});
    EXPECT_DOUBLE_EQ(res.iter_time, 2.0);
    EXPECT_DOUBLE_EQ(res.gpu_utilization, 0.5);
    EXPECT_DOUBLE_EQ(res.cpu_utilization, 0.5);
    EXPECT_DOUBLE_EQ(res.link_utilization, 0.0);
    EXPECT_FALSE(res.gantt.empty());
}

TEST(IterBuilder, FinishWindowMeasuresSubrange)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const auto a = b.onGpu("one", 1.0);
    b.onGpu("two", 1.0, {a});
    const sim::Schedule sched = b.schedule();
    const IterationResult res =
        b.finishWindow(model::IterationFlops{}, 1.0, 2.0, sched);
    EXPECT_DOUBLE_EQ(res.iter_time, 1.0);
    EXPECT_DOUBLE_EQ(res.gpu_utilization, 1.0);
}

TEST(IterBuilder, NvmeTimesUseTheNvmeLink)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    // 6 GB at 6 GB/s ~= 1 s, far slower than the same bytes over C2C.
    EXPECT_NEAR(b.nvmeTime(6.0 * kGB), 1.0, 0.01);
    EXPECT_GT(b.nvmeTime(kGB), 20.0 * b.h2dTime(kGB));
}

TEST(IterBuilder, NvmeTasksOccupyTheirOwnChannel)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    // NVMe traffic overlaps GPU work (separate resources).
    const auto gpu_task = b.onGpu("work", 1.0);
    b.onTransfer(hw::kTierDdr, hw::kTierNvme, "read", 1.0, 0.0);
    (void)gpu_task;
    const auto res = b.finish(model::IterationFlops{});
    EXPECT_DOUBLE_EQ(res.iter_time, 1.0);
}

TEST(IterBuilder, MicroTokens)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    EXPECT_DOUBLE_EQ(b.microTokens(4), 4.0 * 1024.0);
}

TEST(IterBuilder, TierPairTimesAliasTheLegacyHelpers)
{
    // The refactor contract: the named-tier primitives are the same
    // arithmetic as the legacy direction helpers, to the last ULP.
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    for (const double bytes : {64.0 * kMiB, kGB, 7.3 * kGB}) {
        EXPECT_DOUBLE_EQ(b.transferTime(hw::kTierDdr, hw::kTierHbm, bytes),
                         b.h2dTime(bytes));
        EXPECT_DOUBLE_EQ(b.transferTime(hw::kTierHbm, hw::kTierDdr, bytes),
                         b.d2hTime(bytes));
        EXPECT_DOUBLE_EQ(b.transferTime(hw::kTierDdr, hw::kTierNvme, bytes),
                         b.nvmeTime(bytes));
    }
}

TEST(IterBuilder, TierPairPinnedVsPageable)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const double pinned =
        b.transferTime(hw::kTierDdr, hw::kTierHbm, kGB, true);
    const double pageable =
        b.transferTime(hw::kTierDdr, hw::kTierHbm, kGB, false);
    EXPECT_GT(pageable, 2.0 * pinned);
    EXPECT_DOUBLE_EQ(pageable, b.h2dTime(kGB, false));
}

TEST(IterBuilder, ChunkedTransferOverlapMath)
{
    // N full granules plus a remainder: each chunk pays the granule's
    // achievable bandwidth and latency, the remainder pays its own.
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const double granule = 64.0 * kMiB;
    const double bytes = 2.5 * granule;
    const double expected = 2.0 * b.h2dTime(granule) +
                            b.h2dTime(0.5 * granule);
    EXPECT_DOUBLE_EQ(b.chunkedTransferTime(hw::kTierDdr, hw::kTierHbm,
                                           bytes, granule),
                     expected);
    // Exact multiple: no remainder term.
    EXPECT_DOUBLE_EQ(b.chunkedTransferTime(hw::kTierDdr, hw::kTierHbm,
                                           2.0 * granule, granule),
                     2.0 * b.h2dTime(granule));
}

TEST(IterBuilder, ChunkedTransferDegenerateCases)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    const double granule = 64.0 * kMiB;
    // Zero bytes move for free (no latency, no overhead term).
    EXPECT_DOUBLE_EQ(b.chunkedTransferTime(hw::kTierDdr, hw::kTierHbm,
                                           0.0, granule, true, 1.0),
                     0.0);
    // A transfer smaller than one granule is a single message.
    EXPECT_DOUBLE_EQ(b.chunkedTransferTime(hw::kTierDdr, hw::kTierHbm,
                                           kMiB, granule),
                     b.h2dTime(kMiB));
    // Degenerate granule (larger than the payload) behaves the same.
    EXPECT_DOUBLE_EQ(b.chunkedTransferTime(hw::kTierDdr, hw::kTierHbm,
                                           kMiB, 100.0 * kGB),
                     b.h2dTime(kMiB));
}

TEST(IterBuilder, OnTransferAccountsTierTraffic)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    b.onTransfer(hw::kTierDdr, hw::kTierHbm, "up", 1.0, 3.0 * kGB);
    b.onTransfer(hw::kTierDdr, hw::kTierHbm, "up2", 1.0, 1.0 * kGB);
    b.onTransfer(hw::kTierHbm, hw::kTierDdr, "down", 1.0, 2.0 * kGB);
    const IterationResult res = b.finish(model::IterationFlops{});
    ASSERT_EQ(res.tier_traffic.size(), b.hierarchy().paths().size());
    double up = 0.0, down = 0.0, nvme = 0.0;
    for (const auto &t : res.tier_traffic) {
        if (t.from == "DDR" && t.to == "HBM")
            up = t.bytes;
        else if (t.from == "HBM" && t.to == "DDR")
            down = t.bytes;
        else
            nvme += t.bytes;
    }
    EXPECT_DOUBLE_EQ(up, 4.0 * kGB);
    EXPECT_DOUBLE_EQ(down, 2.0 * kGB);
    // Untouched paths report zero so consumers see the full topology.
    EXPECT_DOUBLE_EQ(nvme, 0.0);
}

TEST(IterBuilder, DefaultHierarchyAddsNoExtraResources)
{
    const TrainSetup setup = gh200Setup();
    IterBuilder b(setup);
    // The canonical channels map onto the standard seven resources.
    EXPECT_EQ(b.graph().resourceCount(), 7u);
    EXPECT_EQ(b.channelResource(hw::kChannelH2d), b.h2d());
    EXPECT_EQ(b.channelResource(hw::kChannelD2h), b.d2h());
    EXPECT_EQ(b.channelResource(hw::kChannelNvme), b.nvme());
}

TEST(IterBuilder, GdsPathsAllocateTheirOwnChannelAfterTheSeven)
{
    const TrainSetup setup = gh200Setup();
    hw::HierarchyOptions opts;
    opts.gds_paths = true;
    IterBuilder b(setup, opts);
    EXPECT_EQ(b.graph().resourceCount(), 8u);
    const sim::ResourceId gds = b.channelResource(hw::kChannelGds);
    EXPECT_GE(gds, 7u);
    EXPECT_NE(gds, b.nvme());
}

TEST(IterBuilder, ConcurrentPathsOverlapInTheSchedule)
{
    // One second of staged NVMe traffic plus one second of GDS traffic
    // finish in one second total: distinct channels, genuine overlap.
    const TrainSetup setup = gh200Setup();
    hw::HierarchyOptions opts;
    opts.gds_paths = true;
    IterBuilder b(setup, opts);
    const hw::MemoryHierarchy &hier = b.hierarchy();
    const auto gds = hier.pathsBetween(hw::kTierNvme, hw::kTierHbm);
    ASSERT_EQ(gds.size(), 1u);
    b.onTransfer(hw::kTierNvme, hw::kTierDdr, "staged", 1.0, kGB);
    b.onPath(*gds[0], "direct", 1.0, kGB);
    const IterationResult res = b.finish(model::IterationFlops{});
    EXPECT_DOUBLE_EQ(res.iter_time, 1.0);
}

} // namespace
} // namespace so::runtime
