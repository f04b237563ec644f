#include "runtime/zero_offload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

double
ZeroOffloadSystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const double n = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    // Full fp16 parameters + full fp16 gradient buffer (DeepSpeed's
    // contiguous-gradients layout) + this rank's pinned transfer
    // staging (~P/N bytes of bucket buffers).
    const double states = 2.0 * params + 2.0 * params + params / n;
    return model::gpuResidentBytes(states + activationBytes(setup, cand));
}

double
ZeroOffloadSystem::cpuBytes(const TrainSetup &setup, const SearchCandidate &) const
{
    const double n = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    // 12P/N optimizer shard + 4P/N fp32 gradient copy.
    return (hw::kOptimStateBytesPerParam + hw::kFp32BytesPerParam) *
           params / n;
}

IterationResult
ZeroOffloadSystem::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const double params = setup.model.params();
    const double n = setup.cluster.totalSuperchips();

    // Partition the gradient stream into transfer buckets.
    const auto buckets = static_cast<std::uint32_t>(std::clamp(
        std::ceil(2.0 * params / kOffloadBucketBytes), 1.0, 200.0));
    const double bucket_params = params / buckets;
    const double shard_params = bucket_params / n; // per-rank per bucket
    const PassTimes chunk = builder.passTimes(cand, buckets);

    // Per accumulation step: fwd+bwd per bucket; last step adds up to
    // three offload tasks per bucket (rs/d2h/cast); then the norm check,
    // three return-path tasks per bucket, and the optional all-gather.
    builder.reserve(
        static_cast<std::size_t>(accum_steps) * 2 * buckets +
            7 * static_cast<std::size_t>(buckets) + 2,
        static_cast<std::size_t>(accum_steps) * 2 * buckets +
            10 * static_cast<std::size_t>(buckets) + 2);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> casts;
    casts.reserve(buckets);
    std::vector<sim::TaskId> cast_done(buckets, sim::kInvalidTask);

    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t c = 0; c < buckets; ++c) {
            prev = builder.onGpu("fwd", chunk.fwd,
                                 sim::DepView::optional(prev));
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t c = 0; c < buckets; ++c) {
            prev = builder.onGpu("bwd", chunk.bwd, {prev});
            if (!last)
                continue;
            // Gradient bucket leaves the GPU as soon as it is produced:
            // reduce-scatter (multi-rank), then fp16 swap-out, then a
            // CPU-side fp16 -> fp32 cast (the classic Cast_cpu <->
            // Move_fp16 design, §4.5).
            sim::TaskId ready = prev;
            if (n > 1) {
                ready = builder.onNic(
                    {"rs g", c},
                    builder.coll().reduceScatter(2.0 * bucket_params),
                    {ready});
            }
            // fp16 swap-out lands in unpinned staging (§4.5's
            // transfer-then-cast pattern), then a CPU-side cast plus
            // the framework's per-bucket bookkeeping.
            const double grad_bytes =
                hw::kFp16BytesPerParam * shard_params;
            const sim::TaskId moved = builder.onTransfer(
                hw::kTierHbm, hw::kTierDdr, {"d2h g", c},
                builder.d2hTime(grad_bytes, /*pinned=*/false), grad_bytes,
                {ready});
            cast_done[c] = builder.onCpu(
                {"cast g", c},
                builder.cpuCastTime(shard_params) +
                    kBucketFrameworkOverhead,
                {moved});
            casts.push_back(cast_done[c]);
        }
    }

    // STE synchronization point: global gradient norm + NaN/Inf check
    // over the full fp32 gradient shard, after *all* buckets arrived.
    const double norm_bytes = 4.0 * params / n;
    const sim::TaskId norm = builder.onCpu(
        "grad-norm+check",
        setup.cluster.node.superchip.cpu.memTime(norm_bytes), casts);

    // Optimizer steps per bucket (CPU-Adam), then fp32 -> fp16 cast and
    // swap-in of the updated parameters; the H2D transfers overlap with
    // later buckets' optimizer work.
    std::vector<sim::TaskId> returns;
    returns.reserve(buckets);
    for (std::uint32_t c = 0; c < buckets; ++c) {
        const sim::TaskId opt = builder.onCpu(
            {"adam b", c},
            builder.cpuAdamTime(shard_params, hw::AdamImpl::CpuAdam) +
                kBucketFrameworkOverhead,
            {norm, cast_done[c]});
        const sim::TaskId cast_back = builder.onCpu(
            {"cast p", c},
            builder.cpuCastTime(shard_params), {opt});
        const double param_bytes = hw::kFp16BytesPerParam * shard_params;
        returns.push_back(builder.onTransfer(
            hw::kTierDdr, hw::kTierHbm, {"h2d p", c},
            builder.h2dTime(param_bytes, /*pinned=*/false), param_bytes,
            {cast_back}));
    }

    // Multi-rank: all-gather the updated fp16 parameters; the next
    // forward pass cannot start before this completes (STE constraint
    // 2 in §3).
    if (n > 1) {
        builder.onNic("allgather params",
                      builder.coll().allGather(2.0 * params), returns);
    }
    return builder.finish(builder.iterationFlops(cand));
}

} // namespace so::runtime
