#include "hw/memory.h"

#include <utility>

#include "common/logging.h"
#include "hw/constants.h"

namespace so::hw {

double
MemoryTier::memTime(double bytes) const
{
    SO_ASSERT(bytes >= 0.0, "negative bytes");
    SO_ASSERT(bandwidth > 0.0, "tier '", name, "' bandwidth not set");
    return bytes / bandwidth;
}

double
MemoryPath::transferTime(double bytes, bool pinned) const
{
    return pinned ? link.transferTime(bytes)
                  : link.transferTimeUnpinned(bytes);
}

std::size_t
MemoryHierarchy::addTier(MemoryTier tier)
{
    SO_ASSERT(!tier.name.empty(), "tier needs a name");
    SO_ASSERT(!hasTier(tier.name), "duplicate tier '", tier.name, "'");
    SO_ASSERT(tier.capacity_bytes >= 0.0, "tier '", tier.name,
              "' has negative capacity");
    SO_ASSERT(tier.usable_fraction > 0.0 && tier.usable_fraction <= 1.0,
              "tier '", tier.name, "' usable fraction out of (0, 1]");
    tiers_.push_back(std::move(tier));
    return tiers_.size() - 1;
}

std::size_t
MemoryHierarchy::addPath(std::string_view from, std::string_view to,
                         std::string channel, Link link)
{
    SO_ASSERT(from != to, "path must join two distinct tiers");
    SO_ASSERT(!channel.empty(), "path needs a channel");
    MemoryPath path;
    path.src = tierIndex(from);
    path.dst = tierIndex(to);
    path.name = std::string(from) + "->" + std::string(to);
    path.channel = std::move(channel);
    path.link = std::move(link);
    paths_.push_back(std::move(path));
    return paths_.size() - 1;
}

bool
MemoryHierarchy::hasTier(std::string_view name) const
{
    for (const MemoryTier &tier : tiers_)
        if (tier.name == name)
            return true;
    return false;
}

std::size_t
MemoryHierarchy::tierIndex(std::string_view name) const
{
    for (std::size_t i = 0; i < tiers_.size(); ++i)
        if (tiers_[i].name == name)
            return i;
    SO_PANIC("unknown memory tier '", std::string(name), "'");
}

const MemoryTier &
MemoryHierarchy::tier(std::string_view name) const
{
    return tiers_[tierIndex(name)];
}

std::vector<const MemoryPath *>
MemoryHierarchy::pathsBetween(std::string_view from,
                              std::string_view to) const
{
    const std::size_t src = tierIndex(from);
    const std::size_t dst = tierIndex(to);
    std::vector<const MemoryPath *> out;
    for (const MemoryPath &path : paths_)
        if (path.src == src && path.dst == dst)
            out.push_back(&path);
    return out;
}

const MemoryPath &
MemoryHierarchy::primaryPath(std::string_view from,
                             std::string_view to) const
{
    const std::size_t src = tierIndex(from);
    const std::size_t dst = tierIndex(to);
    for (const MemoryPath &path : paths_)
        if (path.src == src && path.dst == dst)
            return path;
    SO_PANIC("no path '", std::string(from), "' -> '", std::string(to),
             "'");
}

MemoryHierarchy
memoryHierarchy(const SuperchipSpec &chip, const Link &host_link,
                const HierarchyOptions &opts)
{
    MemoryHierarchy hier;

    MemoryTier hbm;
    hbm.name = std::string(kTierHbm);
    hbm.description = "GPU memory";
    hbm.kind = TierKind::Device;
    hbm.capacity_bytes = chip.gpu.mem_bytes;
    hbm.bandwidth = chip.gpu.mem_bw;
    hier.addTier(hbm);

    MemoryTier ddr;
    ddr.name = std::string(kTierDdr);
    ddr.description = "host DRAM";
    ddr.kind = TierKind::Host;
    ddr.capacity_bytes = chip.cpu.mem_bytes;
    ddr.bandwidth = chip.cpu.mem_bw;
    ddr.usable_fraction = kDdrUsableFraction;
    hier.addTier(ddr);

    hier.addPath(kTierDdr, kTierHbm, std::string(kChannelH2d), host_link);
    hier.addPath(kTierHbm, kTierDdr, std::string(kChannelD2h), host_link);

    if (chip.nvme_bytes > 0.0) {
        MemoryTier nvme;
        nvme.name = std::string(kTierNvme);
        nvme.description = "NVMe";
        nvme.kind = TierKind::Cold;
        nvme.capacity_bytes = chip.nvme_bytes;
        nvme.bandwidth = chip.nvme.curve().peak();
        nvme.latency = chip.nvme.latency();
        hier.addTier(nvme);

        // Both directions ride the same duplex drive channel: reads and
        // writes to one drive serialize in the DES.
        hier.addPath(kTierDdr, kTierNvme, std::string(kChannelNvme),
                     chip.nvme);
        hier.addPath(kTierNvme, kTierDdr, std::string(kChannelNvme),
                     chip.nvme);

        if (opts.gds_paths) {
            // A second drive queue DMAs straight into HBM, bypassing the
            // DDR bounce buffer. Same media rate, its own channel, so it
            // overlaps with the staged route and with C2C traffic.
            hier.addPath(kTierNvme, kTierHbm, std::string(kChannelGds),
                         chip.nvme);
            hier.addPath(kTierHbm, kTierNvme, std::string(kChannelGds),
                         chip.nvme);
        }
    }

    return hier;
}

MemoryHierarchy
memoryHierarchy(const NodeSpec &node, NumaBinding binding,
                const HierarchyOptions &opts)
{
    return memoryHierarchy(node.superchip,
                           effectiveHostLink(node, binding), opts);
}

} // namespace so::hw
