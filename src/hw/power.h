/**
 * @file
 * Per-resource electrical power model of one Superchip.
 *
 * The Grace-Hopper energy literature (see PAPERS.md) argues that
 * phase-level *joule* attribution — not just time — is what separates
 * offloading strategies on GH200-class hardware. This module supplies
 * the physical side of that argument: for every DES resource the
 * simulator schedules on (GPU, CPU, the background-validation CPU
 * slice, each transfer channel of the hw::MemoryHierarchy), a
 * PowerProfile gives busy watts, idle watts, and — for transfer
 * channels — the switching energy per byte moved. Host DRAM refresh is
 * a static background term proportional to capacity.
 *
 * powerModel() derives the table per Superchip alongside
 * memoryHierarchy(): the GH200 anchors in hw/constants.h are scaled to
 * the chip by capability ratio (GPU watts with peak FLOPS, CPU watts
 * with core count), extra hierarchy channels (GDS, duplex NVMe) get
 * profiles keyed off the tiers they touch, and every number can be
 * overridden per job through PowerOverrides (planner config keys, see
 * docs/ENERGY.md). The model is purely observational: it never changes
 * a schedule, only meters it.
 */
#ifndef SO_HW_POWER_H
#define SO_HW_POWER_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hw/memory.h"
#include "hw/topology.h"

namespace so::hw {

/** Electrical profile of one DES resource. */
struct PowerProfile
{
    /** DES resource name this profile meters ("GPU", "H2D", "GDS"). */
    std::string name;
    /** Human label for reports ("H100 module", "C2C copy engine"). */
    std::string description;
    /** Draw while the resource has work in flight, in watts. */
    double busy_w = 0.0;
    /** Floor draw while the resource sits idle, in watts. */
    double idle_w = 0.0;
    /**
     * Switching energy per byte moved, in joules/byte. Zero for
     * compute resources; transfer channels add this on top of the
     * busy watts so a fast link and a slow link moving the same bytes
     * pay the same per-byte toll but different time-proportional cost.
     */
    double joules_per_byte = 0.0;
};

/** A static draw that accrues for the whole makespan (DRAM refresh). */
struct BackgroundPower
{
    /** What draws it ("DDR refresh"). */
    std::string name;
    double watts = 0.0;
};

/**
 * Per-job overrides of the derived model (docs/ENERGY.md). Each field
 * mirrors a planner config key of the same name; unset fields keep the
 * preset-scaled value.
 */
struct PowerOverrides
{
    std::optional<double> gpu_busy_w;
    std::optional<double> gpu_idle_w;
    std::optional<double> cpu_busy_w;
    std::optional<double> cpu_idle_w;
    std::optional<double> link_busy_w;
    std::optional<double> link_idle_w;
    std::optional<double> nic_busy_w;
    std::optional<double> nic_idle_w;
    std::optional<double> nvme_busy_w;
    std::optional<double> nvme_idle_w;
    /** C2C/PCIe switching energy, picojoules per byte. */
    std::optional<double> c2c_pj_per_byte;
    /** NVMe read/write energy, picojoules per byte. */
    std::optional<double> nvme_pj_per_byte;
    /** Host DRAM refresh draw, watts per advertised GiB. */
    std::optional<double> ddr_w_per_gib;

    /** True when any field is set (sweep fingerprints hash these). */
    bool any() const;
};

/** The full electrical model of one Superchip. */
class PowerModel
{
  public:
    /** Register @p profile; resource names must be unique. */
    void add(PowerProfile profile);

    /** Register a static background draw. */
    void addBackground(std::string name, double watts);

    /** Profiles in insertion order. */
    const std::vector<PowerProfile> &resources() const
    {
        return resources_;
    }

    /** Static draws in insertion order. */
    const std::vector<BackgroundPower> &background() const
    {
        return background_;
    }

    /** Profile of resource @p name, or nullptr when unmetered. */
    const PowerProfile *find(std::string_view name) const;

  private:
    std::vector<PowerProfile> resources_;
    std::vector<BackgroundPower> background_;
};

/**
 * Derive @p chip's power model next to its @p hierarchy. The standard
 * seven builder resources (GPU, CPU, CPU-bg, H2D, D2H, NIC, NVMe) are
 * always present; every extra hierarchy channel (GDS, additional NVMe
 * queues) gets a profile keyed off the tiers its paths touch — a
 * channel reaching the NVMe tier draws like a second drive queue and
 * pays the NVMe per-byte toll, any other channel draws like a link.
 * Chips without an NVMe drive get a zero-watt NVMe profile. Host-kind
 * tiers contribute a DRAM-refresh background term; HBM standby is
 * folded into the GPU idle watts (it lives inside the module
 * envelope).
 */
PowerModel powerModel(const SuperchipSpec &chip,
                      const MemoryHierarchy &hierarchy,
                      const PowerOverrides &overrides = {});

} // namespace so::hw

#endif // SO_HW_POWER_H
