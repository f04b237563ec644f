/**
 * @file
 * First-class N-tier memory hierarchy.
 *
 * The paper's analysis (§4.2–§4.4) is driven by where tensors live and
 * what link moves them. This module makes that explicit: a
 * MemoryHierarchy is a set of named MemoryTiers (capacity, bandwidth,
 * latency) joined by typed MemoryPaths. A tier pair may be joined by
 * *multiple concurrent paths* — the MLP-Offload design point, where
 * e.g. NVMe traffic reaches the GPU both directly (GDS-style DMA) and
 * staged through host DRAM — and each path names the DES channel that
 * carries it, so concurrent paths genuinely overlap in the simulator.
 *
 * The hierarchy is the single source of truth across layers: memory
 * accounting reports per-tier footprints against MemoryTier capacity,
 * runtime fit checks iterate tiers generically, and IterBuilder maps
 * each path channel onto a simulation resource.
 */
#ifndef SO_HW_MEMORY_H
#define SO_HW_MEMORY_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/bandwidth.h"
#include "hw/topology.h"

namespace so::hw {

/** Canonical tier names (lookup keys, also shown in the Explorer). */
inline constexpr std::string_view kTierHbm = "HBM";
inline constexpr std::string_view kTierDdr = "DDR";
inline constexpr std::string_view kTierNvme = "NVMe";

/** Canonical DES channel names for the standard paths. */
inline constexpr std::string_view kChannelH2d = "H2D";
inline constexpr std::string_view kChannelD2h = "D2H";
inline constexpr std::string_view kChannelNvme = "NVMe";
inline constexpr std::string_view kChannelGds = "GDS";

/** Broad tier classes (drives default demand accounting). */
enum class TierKind
{
    /** Accelerator-attached memory (HBM). */
    Device,
    /** Host DRAM (DDR/LPDDR). */
    Host,
    /** Block storage (NVMe, remote DDR, ...). */
    Cold,
};

/** One level of the hierarchy: a named pool of bytes. */
struct MemoryTier
{
    /** Short lookup key ("HBM", "DDR", "NVMe"). */
    std::string name;
    /** Human label used by capacity diagnostics ("host DRAM"). */
    std::string description;
    TierKind kind = TierKind::Host;
    /** Advertised capacity in bytes. */
    double capacity_bytes = 0.0;
    /** Intra-tier streaming bandwidth in bytes/s. */
    double bandwidth = 0.0;
    /** First-byte access latency in seconds. */
    double latency = 0.0;
    /** Fraction of the advertised capacity usable by training state. */
    double usable_fraction = 1.0;

    /** Capacity after the usable fraction. */
    double usableBytes() const { return capacity_bytes * usable_fraction; }

    /** Time for a bandwidth-bound pass over @p bytes inside the tier. */
    double memTime(double bytes) const;
};

/**
 * One directed route between two tiers. Paths are typed by the Link
 * they ride (latency + size-dependent bandwidth curve) and by the DES
 * channel that carries them: paths sharing a channel serialize (the
 * seed's duplex NVMe drive), paths on distinct channels overlap (C2C
 * vs. GDS).
 */
struct MemoryPath
{
    /** Display name, e.g. "DDR->HBM". */
    std::string name;
    /** Source / destination tier indices into MemoryHierarchy::tiers(). */
    std::size_t src = 0;
    std::size_t dst = 0;
    /** DES resource carrying this path ("H2D", "D2H", "NVMe", "GDS"). */
    std::string channel;
    Link link;

    /** Time to move @p bytes over this path. */
    double transferTime(double bytes, bool pinned = true) const;
};

/** Named tiers plus the typed links joining them. */
class MemoryHierarchy
{
  public:
    /** Add a tier; names must be unique. Returns the tier index. */
    std::size_t addTier(MemoryTier tier);

    /**
     * Add a directed path @p from -> @p to (tier names) riding
     * @p link on @p channel. Multiple paths per tier pair are allowed
     * and mean concurrent routes. Returns the path index.
     */
    std::size_t addPath(std::string_view from, std::string_view to,
                        std::string channel, Link link);

    /** Tiers in insertion order (hot -> cold by convention). */
    const std::vector<MemoryTier> &tiers() const { return tiers_; }

    /** All paths in insertion order. */
    const std::vector<MemoryPath> &paths() const { return paths_; }

    bool hasTier(std::string_view name) const;

    /** Index of tier @p name; fatal when absent. */
    std::size_t tierIndex(std::string_view name) const;

    /** Tier @p name; fatal when absent. */
    const MemoryTier &tier(std::string_view name) const;

    /**
     * Every concurrent path @p from -> @p to, in insertion order.
     * Empty when the tiers are not directly linked.
     */
    std::vector<const MemoryPath *>
    pathsBetween(std::string_view from, std::string_view to) const;

    /** The first (primary) path @p from -> @p to; fatal when none. */
    const MemoryPath &primaryPath(std::string_view from,
                                  std::string_view to) const;

  private:
    std::vector<MemoryTier> tiers_;
    std::vector<MemoryPath> paths_;
};

/** Options for deriving a hierarchy from a Superchip description. */
struct HierarchyOptions
{
    /**
     * Add direct NVMe<->HBM paths (GDS-style DMA through a second
     * drive queue) on their own channel, so NVMe traffic can bypass
     * the DDR bounce and overlap with C2C traffic. Off by default:
     * the seed systems model the classic staged route only.
     */
    bool gds_paths = false;
};

/**
 * Derive the canonical hierarchy of one Superchip: an HBM tier, a DDR
 * tier (at the usable host fraction), and an NVMe tier when the chip
 * has one. Paths: DDR->HBM / HBM->DDR over @p host_link (channels
 * "H2D"/"D2H"; pass hw::effectiveHostLink for NUMA-aware routing), and
 * DDR<->NVMe over the drive link sharing the duplex "NVMe" channel.
 */
MemoryHierarchy memoryHierarchy(const SuperchipSpec &chip,
                                const Link &host_link,
                                const HierarchyOptions &opts = {});

/** Convenience: hierarchy of @p node's Superchip under @p binding. */
MemoryHierarchy memoryHierarchy(const NodeSpec &node, NumaBinding binding,
                                const HierarchyOptions &opts = {});

} // namespace so::hw

#endif // SO_HW_MEMORY_H
