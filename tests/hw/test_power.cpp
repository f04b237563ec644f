#include "hw/power.h"

#include <gtest/gtest.h>

#include "common/units.h"
#include "hw/constants.h"
#include "hw/memory.h"
#include "hw/presets.h"

namespace so::hw {
namespace {

PowerModel
gh200Power(const PowerOverrides &overrides = {},
           const HierarchyOptions &opts = {})
{
    const ClusterSpec cluster = gh200Single();
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated, opts);
    return powerModel(cluster.node.superchip, hier, overrides);
}

TEST(PowerModel, Gh200CoversTheSevenBuilderResources)
{
    const PowerModel model = gh200Power();
    for (const char *name :
         {"GPU", "CPU", "CPU-bg", "H2D", "D2H", "NIC", "NVMe"})
        EXPECT_NE(model.find(name), nullptr) << name;
}

TEST(PowerModel, Gh200AnchorsAreUnscaled)
{
    // gh200Single *is* the anchor chip: capability ratios are 1, so
    // the presets come through exactly.
    const PowerModel model = gh200Power();
    EXPECT_DOUBLE_EQ(model.find("GPU")->busy_w, kGpuBusyWatts);
    EXPECT_DOUBLE_EQ(model.find("GPU")->idle_w, kGpuIdleWatts);
    EXPECT_DOUBLE_EQ(model.find("CPU")->busy_w, kCpuBusyWatts);
    EXPECT_DOUBLE_EQ(model.find("H2D")->busy_w, kLinkBusyWatts);
    EXPECT_DOUBLE_EQ(model.find("H2D")->joules_per_byte,
                     kC2cPicojoulesPerByte * 1e-12);
    EXPECT_DOUBLE_EQ(model.find("NVMe")->joules_per_byte,
                     kNvmePicojoulesPerByte * 1e-12);
}

TEST(PowerModel, GpuWattsScaleWithPeakFlops)
{
    ClusterSpec cluster = gh200Single();
    cluster.node.superchip.gpu.peak_flops = kGpuPowerAnchorFlops / 2.0;
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated);
    const PowerModel model = powerModel(cluster.node.superchip, hier);
    EXPECT_DOUBLE_EQ(model.find("GPU")->busy_w, kGpuBusyWatts / 2.0);
    EXPECT_DOUBLE_EQ(model.find("GPU")->idle_w, kGpuIdleWatts / 2.0);
}

TEST(PowerModel, CpuWattsScaleWithCores)
{
    ClusterSpec cluster = gh200Single();
    cluster.node.superchip.cpu.cores =
        static_cast<std::uint32_t>(kCpuPowerAnchorCores) * 2;
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated);
    const PowerModel model = powerModel(cluster.node.superchip, hier);
    EXPECT_DOUBLE_EQ(model.find("CPU")->busy_w, kCpuBusyWatts * 2.0);
    EXPECT_DOUBLE_EQ(model.find("CPU-bg")->busy_w,
                     kCpuBgBusyWatts * 2.0);
}

TEST(PowerModel, BackgroundSliceDrawsIncrementally)
{
    // The CPU profile already pays the socket's idle floor; the
    // background-validation slice must not double-charge it.
    const PowerModel model = gh200Power();
    EXPECT_DOUBLE_EQ(model.find("CPU-bg")->idle_w, 0.0);
    EXPECT_GT(model.find("CPU-bg")->busy_w, 0.0);
}

TEST(PowerModel, OverridesReplaceDerivedValues)
{
    PowerOverrides overrides;
    overrides.gpu_busy_w = 123.0;
    overrides.nvme_pj_per_byte = 500.0;
    overrides.ddr_w_per_gib = 1.0;
    const PowerModel model = gh200Power(overrides);
    EXPECT_DOUBLE_EQ(model.find("GPU")->busy_w, 123.0);
    // Unset fields keep the derived value.
    EXPECT_DOUBLE_EQ(model.find("GPU")->idle_w, kGpuIdleWatts);
    EXPECT_DOUBLE_EQ(model.find("NVMe")->joules_per_byte, 500.0e-12);
}

TEST(PowerModel, OverridesAnyDetectsEveryField)
{
    EXPECT_FALSE(PowerOverrides{}.any());
    PowerOverrides overrides;
    overrides.c2c_pj_per_byte = 7.0;
    EXPECT_TRUE(overrides.any());
}

TEST(PowerModel, NvmeLessChipDrawsNoDriveWatts)
{
    ClusterSpec cluster = gh200Single();
    cluster.node.superchip.nvme_bytes = 0.0;
    const MemoryHierarchy hier =
        memoryHierarchy(cluster.node, NumaBinding::Colocated);
    const PowerModel model = powerModel(cluster.node.superchip, hier);
    const PowerProfile *nvme = model.find("NVMe");
    ASSERT_NE(nvme, nullptr);
    EXPECT_DOUBLE_EQ(nvme->busy_w, 0.0);
    EXPECT_DOUBLE_EQ(nvme->idle_w, 0.0);
    EXPECT_DOUBLE_EQ(nvme->joules_per_byte, 0.0);
}

TEST(PowerModel, GdsChannelDrawsLikeASecondDriveQueue)
{
    HierarchyOptions opts;
    opts.gds_paths = true;
    const PowerModel model = gh200Power({}, opts);
    const PowerProfile *gds = model.find(kChannelGds);
    ASSERT_NE(gds, nullptr);
    EXPECT_DOUBLE_EQ(gds->busy_w, kNvmeBusyWatts);
    // Idle floor already paid by the primary NVMe profile.
    EXPECT_DOUBLE_EQ(gds->idle_w, 0.0);
    EXPECT_DOUBLE_EQ(gds->joules_per_byte,
                     kNvmePicojoulesPerByte * 1e-12);
}

TEST(PowerModel, HostTierRefreshScalesWithCapacity)
{
    const ClusterSpec cluster = gh200Single();
    const PowerModel model = gh200Power();
    ASSERT_EQ(model.background().size(), 1u);
    EXPECT_EQ(model.background()[0].name,
              std::string(kTierDdr) + " refresh");
    EXPECT_NEAR(model.background()[0].watts,
                kDdrWattsPerGib *
                    cluster.node.superchip.cpu.mem_bytes / kGiB,
                1e-9);
}

} // namespace
} // namespace so::hw
