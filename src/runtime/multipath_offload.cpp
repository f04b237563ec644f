#include "runtime/multipath_offload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

namespace {

/** Bucket working buffers resident on the GPU (in + out in flight). */
constexpr double kStagingBuckets = 4.0;

/** Cap on the number of transfer buckets (schedule size bound). */
constexpr double kMaxBuckets = 128.0;

} // namespace

double
MultiPathOffloadSystem::nvmeFraction(const SearchCandidate &cand) const
{
    if (forced_fraction_ >= 0.0)
        return forced_fraction_;
    SO_ASSERT(cand.variant < std::size(kNvmeFractions),
              "variant out of fraction grid");
    return kNvmeFractions[cand.variant];
}

std::vector<std::uint32_t>
MultiPathOffloadSystem::searchVariants(const TrainSetup &setup) const
{
    if (forced_fraction_ >= 0.0)
        return {0};
    if (setup.cluster.node.superchip.nvme_bytes <= 0.0)
        return {0}; // No NVMe tier: DDR-only placement.
    std::vector<std::uint32_t> variants;
    for (std::uint32_t v = 0; v < std::size(kNvmeFractions); ++v)
        variants.push_back(v);
    return variants;
}

hw::HierarchyOptions
MultiPathOffloadSystem::hierarchyOptions() const
{
    hw::HierarchyOptions opts;
    opts.gds_paths = enable_gds_;
    return opts;
}

double
MultiPathOffloadSystem::gpuBytes(const TrainSetup &setup,
                                 const SearchCandidate &cand) const
{
    // Weight-flow: only streamed bucket buffers live on the GPU.
    const double staging =
        kStagingBuckets * 2.0 * kBucketBytes;
    return model::gpuResidentBytes(staging + activationBytes(setup, cand));
}

double
MultiPathOffloadSystem::cpuBytes(const TrainSetup &setup,
                                 const SearchCandidate &cand) const
{
    const double shard =
        setup.model.params() / setup.cluster.totalSuperchips();
    // Streamed fp16 copy + fp32 gradient shard stay in DRAM; optimizer
    // states only for the DDR-resident share.
    return (hw::kFp16BytesPerParam + hw::kFp32BytesPerParam +
            (1.0 - nvmeFraction(cand)) * hw::kOptimStateBytesPerParam) *
           shard;
}

double
MultiPathOffloadSystem::nvmeBytes(const TrainSetup &setup,
                                  const SearchCandidate &cand) const
{
    const double shard =
        setup.model.params() / setup.cluster.totalSuperchips();
    return nvmeFraction(cand) * hw::kOptimStateBytesPerParam * shard;
}

IterationResult
MultiPathOffloadSystem::simulate(const TrainSetup &setup,
                                 const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup, hierarchyOptions());
    const double params = setup.model.params();
    const double n = setup.cluster.totalSuperchips();
    const bool multi = n > 1;
    const double frac = nvmeFraction(cand);

    const auto buckets = static_cast<std::uint32_t>(std::clamp(
        std::ceil(hw::kFp16BytesPerParam * params / kBucketBytes), 1.0,
        kMaxBuckets));
    const double bucket_params = params / buckets;
    const double shard = bucket_params / n; // per-rank params per bucket

    // NVMe routes: the staged path always exists alongside the tier;
    // the GDS path only when enabled. Stripe the NVMe-resident share
    // across the routes proportionally to their peak bandwidths.
    const hw::MemoryHierarchy &hier = builder.hierarchy();
    const bool has_nvme = hier.hasTier(hw::kTierNvme);
    SO_ASSERT(frac == 0.0 || has_nvme,
              "NVMe placement requested on a chip without NVMe");
    const hw::MemoryPath *gds_read = nullptr;
    const hw::MemoryPath *gds_write = nullptr;
    if (has_nvme && enable_gds_) {
        for (const hw::MemoryPath *p :
             hier.pathsBetween(hw::kTierNvme, hw::kTierHbm))
            if (p->channel == hw::kChannelGds)
                gds_read = p;
        for (const hw::MemoryPath *p :
             hier.pathsBetween(hw::kTierHbm, hw::kTierNvme))
            if (p->channel == hw::kChannelGds)
                gds_write = p;
    }
    double staged_share = 1.0;
    if (gds_read != nullptr) {
        const double bw_staged =
            hier.primaryPath(hw::kTierNvme, hw::kTierDdr)
                .link.curve()
                .peak();
        const double bw_gds = gds_read->link.curve().peak();
        staged_share = bw_staged / (bw_staged + bw_gds);
    }

    // Per-bucket per-rank parameter shares by placement/route.
    const double ddr_params = (1.0 - frac) * shard;
    const double staged_params = frac * shard * staged_share;
    const double gds_params = frac * shard * (1.0 - staged_share);
    const double opt_staged_bytes =
        hw::kOptimStateBytesPerParam * staged_params;
    const double opt_gds_bytes = hw::kOptimStateBytesPerParam * gds_params;

    const PassTimes chunk = builder.passTimes(cand, buckets);
    const double weight_bytes = hw::kFp16BytesPerParam * shard;
    const double fetch_time = builder.h2dTime(weight_bytes);
    const double gather_time =
        multi ? builder.coll().allGather(hw::kFp16BytesPerParam *
                                         bucket_params)
              : 0.0;

    {
        const auto b = static_cast<std::size_t>(buckets);
        const std::size_t per_pass = multi ? 3 : 2;
        builder.reserve(
            static_cast<std::size_t>(accum_steps) * 2 * per_pass * b +
                12 * b + 2,
            static_cast<std::size_t>(accum_steps) * 6 * b + 24 * b + 2);
    }

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> cast_done(buckets, sim::kInvalidTask);
    std::vector<sim::TaskId> staged_in(buckets, sim::kInvalidTask);
    std::vector<sim::TaskId> gpu_grads(buckets, sim::kInvalidTask);
    std::vector<sim::TaskId> casts;
    casts.reserve(buckets);

    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t c = 0; c < buckets; ++c) {
            // Weight-flow: stream this bucket's fp16 params from DRAM
            // (prefetchable), all-gather when partitioned.
            sim::TaskId ready = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm, "h2d w" + std::to_string(c),
                fetch_time, weight_bytes, {});
            if (multi)
                ready = builder.onNic("ag", gather_time, {ready});
            std::vector<sim::TaskId> deps{ready};
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            prev = builder.onGpu("fwd", chunk.fwd, std::move(deps));
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t c = 0; c < buckets; ++c) {
            sim::TaskId ready = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm, "h2d w'" + std::to_string(c),
                fetch_time, weight_bytes, {});
            if (multi)
                ready = builder.onNic("ag'", gather_time, {ready});
            prev = builder.onGpu("bwd", chunk.bwd, {prev, ready});
            if (!last)
                continue;

            sim::TaskId grads = prev;
            if (multi) {
                grads = builder.onNic(
                    "rs g" + std::to_string(c),
                    builder.coll().reduceScatter(hw::kFp16BytesPerParam *
                                                 bucket_params),
                    {grads});
            }
            gpu_grads[c] = grads;

            // Gradients leave for the host through the pinned pool.
            const double grad_bytes = hw::kFp16BytesPerParam * shard;
            const sim::TaskId moved = builder.onTransfer(
                hw::kTierHbm, hw::kTierDdr, "d2h g" + std::to_string(c),
                builder.d2hTime(grad_bytes), grad_bytes, {grads});
            cast_done[c] = builder.onCpu(
                "cast g" + std::to_string(c),
                builder.cpuCastTime(shard), {moved});
            casts.push_back(cast_done[c]);

            // Staged NVMe stripe prefetches its optimizer states into
            // DRAM over the drive channel while backward continues.
            if (staged_params > 0.0) {
                staged_in[c] = builder.onTransfer(
                    hw::kTierNvme, hw::kTierDdr,
                    "nvme-r b" + std::to_string(c),
                    builder.nvmeTime(opt_staged_bytes), opt_staged_bytes,
                    {});
            }
        }
    }

    // STE synchronization: global norm over the fp32 gradient shard.
    const sim::TaskId norm = builder.onCpu(
        "grad-norm+check",
        setup.cluster.node.superchip.cpu.memTime(hw::kFp32BytesPerParam *
                                                 params / n),
        casts);

    const hw::AdamImpl impl = hw::AdamImpl::GraceAdam;
    for (std::uint32_t c = 0; c < buckets; ++c) {
        // CPU route: DDR-resident states plus the staged NVMe stripe.
        const double cpu_params = ddr_params + staged_params;
        if (cpu_params > 0.0) {
            std::vector<sim::TaskId> deps{norm, cast_done[c]};
            if (staged_in[c] != sim::kInvalidTask)
                deps.push_back(staged_in[c]);
            const sim::TaskId opt = builder.onCpu(
                "adam b" + std::to_string(c),
                builder.cpuAdamTime(cpu_params, impl), std::move(deps));
            if (staged_params > 0.0) {
                builder.onTransfer(hw::kTierDdr, hw::kTierNvme,
                                   "nvme-w b" + std::to_string(c),
                                   builder.nvmeTime(opt_staged_bytes),
                                   opt_staged_bytes, {opt});
            }
            const sim::TaskId cast = builder.onCpu(
                "cast p" + std::to_string(c),
                builder.cpuCastTime(cpu_params), {opt});
            const double back_bytes = hw::kFp16BytesPerParam * cpu_params;
            builder.onTransfer(hw::kTierDdr, hw::kTierHbm,
                               "h2d p" + std::to_string(c),
                               builder.h2dTime(back_bytes), back_bytes,
                               {cast});
        }

        // GDS route: states DMA straight into HBM on their own channel
        // (overlapping the staged stripe and the C2C traffic) and the
        // GPU applies Adam to them beside its gradients.
        if (gds_params > 0.0) {
            const sim::TaskId in = builder.onPath(
                *gds_read, "gds-r b" + std::to_string(c),
                builder.pathTime(*gds_read, opt_gds_bytes), opt_gds_bytes,
                {});
            const sim::TaskId opt = builder.onGpu(
                "adam(gpu) b" + std::to_string(c),
                builder.gpuAdamTime(gds_params), {in, gpu_grads[c]}, 1);
            builder.onPath(*gds_write, "gds-w b" + std::to_string(c),
                           builder.pathTime(*gds_write, opt_gds_bytes),
                           opt_gds_bytes, {opt});
        }
    }

    IterationResult res = builder.finish(builder.iterationFlops(cand));
    res.notes = "nvme_frac=" + std::to_string(frac) +
                (gds_read != nullptr ? ", gds=on" : ", gds=off");
    res.setExtra("nvme_fraction", frac);
    res.setExtra("staged_share", has_nvme ? staged_share : 0.0);
    res.setExtra("gds_bytes",
                 2.0 * opt_gds_bytes * static_cast<double>(buckets));
    res.setExtra("staged_bytes",
                 2.0 * opt_staged_bytes * static_cast<double>(buckets));
    return res;
}

} // namespace so::runtime
