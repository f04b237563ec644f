#include "hw/power.h"

#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "hw/constants.h"

namespace so::hw {

namespace {

/** Picojoules -> joules. */
inline constexpr double kPj = 1e-12;

} // namespace

bool
PowerOverrides::any() const
{
    return gpu_busy_w || gpu_idle_w || cpu_busy_w || cpu_idle_w ||
           link_busy_w || link_idle_w || nic_busy_w || nic_idle_w ||
           nvme_busy_w || nvme_idle_w || c2c_pj_per_byte ||
           nvme_pj_per_byte || ddr_w_per_gib;
}

void
PowerModel::add(PowerProfile profile)
{
    if (find(profile.name) != nullptr)
        SO_FATAL("duplicate power profile '", profile.name, "'");
    resources_.push_back(std::move(profile));
}

void
PowerModel::addBackground(std::string name, double watts)
{
    background_.push_back({std::move(name), watts});
}

const PowerProfile *
PowerModel::find(std::string_view name) const
{
    for (const PowerProfile &profile : resources_)
        if (profile.name == name)
            return &profile;
    return nullptr;
}

PowerModel
powerModel(const SuperchipSpec &chip, const MemoryHierarchy &hierarchy,
           const PowerOverrides &overrides)
{
    PowerModel model;

    // Compute: GH200 anchors scaled by capability ratio, so a B200 or
    // a V100 lands at a proportionate envelope without its own preset.
    const double gpu_scale =
        chip.gpu.peak_flops > 0.0
            ? chip.gpu.peak_flops / kGpuPowerAnchorFlops
            : 1.0;
    const double cpu_scale =
        chip.cpu.cores > 0 ? chip.cpu.cores / kCpuPowerAnchorCores : 1.0;
    model.add({"GPU", chip.gpu.name + " module",
               overrides.gpu_busy_w.value_or(kGpuBusyWatts * gpu_scale),
               overrides.gpu_idle_w.value_or(kGpuIdleWatts * gpu_scale),
               0.0});
    model.add({"CPU", chip.cpu.name + " socket",
               overrides.cpu_busy_w.value_or(kCpuBusyWatts * cpu_scale),
               overrides.cpu_idle_w.value_or(kCpuIdleWatts * cpu_scale),
               0.0});
    // The background-validation slice draws *incrementally*: its cores
    // wake on a socket whose floor the main CPU profile already pays,
    // so it has no idle watts of its own.
    model.add({"CPU-bg", chip.cpu.name + " background slice",
               kCpuBgBusyWatts * cpu_scale, 0.0, 0.0});

    const double c2c_jpb =
        overrides.c2c_pj_per_byte.value_or(kC2cPicojoulesPerByte) * kPj;
    const double nvme_jpb =
        overrides.nvme_pj_per_byte.value_or(kNvmePicojoulesPerByte) * kPj;
    const double link_busy =
        overrides.link_busy_w.value_or(kLinkBusyWatts);
    const double link_idle =
        overrides.link_idle_w.value_or(kLinkIdleWatts);
    model.add({"H2D", "host->device copy engine", link_busy, link_idle,
               c2c_jpb});
    model.add({"D2H", "device->host copy engine", link_busy, link_idle,
               c2c_jpb});
    model.add({"NIC", "network interface",
               overrides.nic_busy_w.value_or(kNicBusyWatts),
               overrides.nic_idle_w.value_or(kNicIdleWatts), c2c_jpb});
    // Chips without a drive still get the pinned builder resource; it
    // must not charge phantom watts for hardware that is not there.
    const bool has_nvme = chip.nvme_bytes > 0.0;
    model.add({"NVMe", "NVMe drive",
               has_nvme ? overrides.nvme_busy_w.value_or(kNvmeBusyWatts)
                        : 0.0,
               has_nvme ? overrides.nvme_idle_w.value_or(kNvmeIdleWatts)
                        : 0.0,
               has_nvme ? nvme_jpb : 0.0});

    // Extra hierarchy channels (GDS, additional drive queues): draw
    // like a second queue of the device their paths touch. The idle
    // floor of that device is already paid by its primary profile, so
    // extra channels only add busy draw and the per-byte toll.
    for (const MemoryPath &path : hierarchy.paths()) {
        if (model.find(path.channel) != nullptr)
            continue;
        const auto &tiers = hierarchy.tiers();
        const bool touches_nvme =
            (path.src < tiers.size() &&
             tiers[path.src].name == kTierNvme) ||
            (path.dst < tiers.size() && tiers[path.dst].name == kTierNvme);
        if (touches_nvme) {
            model.add({path.channel, "extra NVMe queue",
                       overrides.nvme_busy_w.value_or(kNvmeBusyWatts),
                       0.0, nvme_jpb});
        } else {
            model.add({path.channel, "extra transfer channel", link_busy,
                       0.0, c2c_jpb});
        }
    }

    // Static draws: host DRAM refresh scales with advertised capacity.
    // HBM standby is inside the GPU module envelope (idle watts above),
    // so Device-kind tiers contribute nothing here.
    const double ddr_w_per_gib =
        overrides.ddr_w_per_gib.value_or(kDdrWattsPerGib);
    for (const MemoryTier &tier : hierarchy.tiers()) {
        if (tier.kind != TierKind::Host)
            continue;
        model.addBackground(tier.name + " refresh",
                            ddr_w_per_gib * tier.capacity_bytes / kGiB);
    }
    return model;
}

} // namespace so::hw
