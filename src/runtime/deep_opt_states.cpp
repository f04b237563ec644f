#include "runtime/deep_opt_states.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

double
DeepOptStatesSystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const double n = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    // fp16 params + fp16 grads resident (ZeRO-2 style) plus streaming
    // buffers for a few optimizer-state buckets in flight.
    const double states = 4.0 * params + params / n + 2.0e9;
    return model::gpuResidentBytes(states + activationBytes(setup, cand));
}

double
DeepOptStatesSystem::cpuBytes(const TrainSetup &setup, const SearchCandidate &) const
{
    // Optimizer states only (12 bytes/param), sharded across ranks.
    return hw::kOptimStateBytesPerParam * setup.model.params() /
           setup.cluster.totalSuperchips();
}

IterationResult
DeepOptStatesSystem::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const double params = setup.model.params();
    const double n = setup.cluster.totalSuperchips();

    const auto buckets = static_cast<std::uint32_t>(std::clamp(
        std::ceil(2.0 * params / kBucketBytes), 1.0, 128.0));
    const double bucket_params = params / buckets;
    const double shard = bucket_params / n;
    const PassTimes chunk = builder.passTimes(cand, buckets);

    // Optimizer-state stream: fetch (12 B/param) before the update,
    // write back (12 B/param) after it; the fetches prefetch against
    // the backward pass.
    const double opt_bytes = hw::kOptimStateBytesPerParam * shard;
    const double fetch_time = builder.h2dTime(opt_bytes);
    const double writeback_time = builder.d2hTime(opt_bytes);

    // accum_steps fwd+bwd passes per bucket; the last pass adds up to
    // four tasks per bucket (rs, h2d, adam, d2h) plus the optional
    // final all-gather with its bucket-wide fan-in.
    builder.reserve(
        static_cast<std::size_t>(accum_steps) * 2 * buckets +
            4 * static_cast<std::size_t>(buckets) + 1,
        static_cast<std::size_t>(accum_steps) * 2 * buckets +
            7 * static_cast<std::size_t>(buckets) + 1);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> updates;
    updates.reserve(buckets);
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
            sim::TaskId grads = prev;
            if (n > 1) {
                grads = builder.onNic(
                    {"rs g", c},
                    builder.coll().reduceScatter(2.0 * bucket_params),
                    {grads});
            }
            // States arrive via prefetch; the GPU applies Adam to this
            // bucket as soon as its gradients are reduced (priority 1:
            // remaining backward chunks run first).
            const sim::TaskId fetched = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm,
                {"h2d opt", c}, fetch_time, opt_bytes, {});
            const sim::TaskId opt = builder.onGpu(
                {"adam(gpu) b", c},
                builder.gpuAdamTime(shard), {grads, fetched}, 1);
            updates.push_back(builder.onTransfer(
                hw::kTierHbm, hw::kTierDdr,
                {"d2h opt", c}, writeback_time, opt_bytes,
                {opt}));
        }
    }
    if (n > 1) {
        std::vector<sim::TaskId> deps = updates;
        deps.push_back(prev);
        builder.onNic("allgather params",
                      builder.coll().allGather(2.0 * params),
                      std::move(deps));
    }
    return builder.finish(builder.iterationFlops(cand));
}

} // namespace so::runtime
