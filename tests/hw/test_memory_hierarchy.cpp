#include "hw/memory.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "hw/constants.h"
#include "hw/presets.h"

namespace so::hw {
namespace {

MemoryHierarchy
gh200Hierarchy(const HierarchyOptions &opts = {})
{
    const ClusterSpec cluster = gh200Single();
    return memoryHierarchy(cluster.node, NumaBinding::Colocated, opts);
}

TEST(MemoryHierarchy, Gh200HasThreeTiersHotToCold)
{
    const MemoryHierarchy hier = gh200Hierarchy();
    ASSERT_EQ(hier.tiers().size(), 3u);
    EXPECT_EQ(hier.tiers()[0].name, kTierHbm);
    EXPECT_EQ(hier.tiers()[1].name, kTierDdr);
    EXPECT_EQ(hier.tiers()[2].name, kTierNvme);
    EXPECT_EQ(hier.tier(kTierHbm).kind, TierKind::Device);
    EXPECT_EQ(hier.tier(kTierDdr).kind, TierKind::Host);
    EXPECT_EQ(hier.tier(kTierNvme).kind, TierKind::Cold);
}

TEST(MemoryHierarchy, TierDescriptionsMatchDiagnostics)
{
    // Capacity diagnostics embed these labels; they are part of the
    // user-visible message contract.
    const MemoryHierarchy hier = gh200Hierarchy();
    EXPECT_EQ(hier.tier(kTierHbm).description, "GPU memory");
    EXPECT_EQ(hier.tier(kTierDdr).description, "host DRAM");
    EXPECT_EQ(hier.tier(kTierNvme).description, "NVMe");
}

TEST(MemoryHierarchy, DdrUsableFractionReservesHostOverheads)
{
    const MemoryHierarchy hier = gh200Hierarchy();
    const MemoryTier &ddr = hier.tier(kTierDdr);
    EXPECT_DOUBLE_EQ(ddr.usable_fraction, kDdrUsableFraction);
    EXPECT_DOUBLE_EQ(ddr.usableBytes(),
                     ddr.capacity_bytes * kDdrUsableFraction);
    EXPECT_DOUBLE_EQ(hier.tier(kTierHbm).usable_fraction, 1.0);
}

TEST(MemoryHierarchy, CapacitiesComeFromTheChipSpec)
{
    const ClusterSpec cluster = gh200Single();
    const SuperchipSpec &chip = cluster.node.superchip;
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated);
    EXPECT_DOUBLE_EQ(hier.tier(kTierHbm).capacity_bytes,
                     chip.gpu.mem_bytes);
    EXPECT_DOUBLE_EQ(hier.tier(kTierDdr).capacity_bytes,
                     chip.cpu.mem_bytes);
    EXPECT_DOUBLE_EQ(hier.tier(kTierNvme).capacity_bytes, chip.nvme_bytes);
}

TEST(MemoryHierarchy, ChipWithoutNvmeHasNoColdTier)
{
    const ClusterSpec cluster = dgxA100();
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated);
    EXPECT_EQ(hier.tiers().size(), 2u);
    EXPECT_FALSE(hier.hasTier(kTierNvme));
    EXPECT_EQ(hier.paths().size(), 2u);
}

TEST(MemoryHierarchy, CanonicalPathsAndChannels)
{
    const MemoryHierarchy hier = gh200Hierarchy();
    EXPECT_EQ(hier.primaryPath(kTierDdr, kTierHbm).channel, kChannelH2d);
    EXPECT_EQ(hier.primaryPath(kTierHbm, kTierDdr).channel, kChannelD2h);
    // The drive is duplex: both directions share one channel, so reads
    // and writes serialize on the same DES resource.
    EXPECT_EQ(hier.primaryPath(kTierDdr, kTierNvme).channel, kChannelNvme);
    EXPECT_EQ(hier.primaryPath(kTierNvme, kTierDdr).channel, kChannelNvme);
    // No direct NVMe->HBM route in the canonical (seed) hierarchy.
    EXPECT_TRUE(hier.pathsBetween(kTierNvme, kTierHbm).empty());
}

TEST(MemoryHierarchy, GdsOptionAddsDirectNvmeHbmPaths)
{
    HierarchyOptions opts;
    opts.gds_paths = true;
    const MemoryHierarchy hier = gh200Hierarchy(opts);
    const auto up = hier.pathsBetween(kTierNvme, kTierHbm);
    const auto down = hier.pathsBetween(kTierHbm, kTierNvme);
    ASSERT_EQ(up.size(), 1u);
    ASSERT_EQ(down.size(), 1u);
    EXPECT_EQ(up[0]->channel, kChannelGds);
    EXPECT_EQ(down[0]->channel, kChannelGds);
    // The staged topology is untouched; GDS is purely additive.
    EXPECT_EQ(hier.primaryPath(kTierDdr, kTierHbm).channel, kChannelH2d);
    EXPECT_EQ(hier.pathsBetween(kTierNvme, kTierDdr).size(), 1u);
}

TEST(MemoryHierarchy, GdsOptionOnNvmelessChipIsNoop)
{
    HierarchyOptions opts;
    opts.gds_paths = true;
    const ClusterSpec cluster = dgxA100();
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated, opts);
    EXPECT_EQ(hier.tiers().size(), 2u);
    EXPECT_EQ(hier.paths().size(), 2u);
}

TEST(MemoryHierarchy, PathTimeMatchesItsLink)
{
    const MemoryHierarchy hier = gh200Hierarchy();
    const MemoryPath &h2d = hier.primaryPath(kTierDdr, kTierHbm);
    EXPECT_DOUBLE_EQ(h2d.transferTime(kGB), h2d.link.transferTime(kGB));
    EXPECT_DOUBLE_EQ(h2d.transferTime(kGB, /*pinned=*/false),
                     h2d.link.transferTimeUnpinned(kGB));
    EXPECT_GT(h2d.transferTime(kGB, false), h2d.transferTime(kGB));
}

TEST(MemoryHierarchy, TierMemTimeIsBandwidthBound)
{
    MemoryTier tier;
    tier.name = "T";
    tier.bandwidth = 100.0 * kGB;
    EXPECT_DOUBLE_EQ(tier.memTime(100.0 * kGB), 1.0);
    EXPECT_DOUBLE_EQ(tier.memTime(0.0), 0.0);
}

TEST(MemoryHierarchyDeath, UnknownTierIsFatal)
{
    const MemoryHierarchy hier = gh200Hierarchy();
    EXPECT_DEATH(hier.tierIndex("L2"), "unknown memory tier");
    EXPECT_DEATH(hier.primaryPath(kTierNvme, kTierHbm), "no path");
}

TEST(MemoryHierarchyDeath, DuplicateTierIsFatal)
{
    MemoryHierarchy hier;
    MemoryTier tier;
    tier.name = "DDR";
    tier.capacity_bytes = kGB;
    hier.addTier(tier);
    EXPECT_DEATH(hier.addTier(tier), "duplicate tier");
}

} // namespace
} // namespace so::hw
