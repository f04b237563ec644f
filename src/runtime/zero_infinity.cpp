#include "runtime/zero_infinity.h"

#include <string>
#include <vector>

#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

double
ZeroInfinitySystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    // Weight-flow: only a ~2-layer working set of fp16 params plus the
    // live gradient layer and fixed staging buffers reside on the GPU.
    const double working = 3.0 * 2.0 * setup.model.paramsPerLayer();
    const double staging = 4.0e9;
    return model::gpuResidentBytes(working + staging +
                                   activationBytes(setup, cand));
}

double
ZeroInfinitySystem::cpuBytes(const TrainSetup &setup, const SearchCandidate &) const
{
    const double n = setup.cluster.totalSuperchips();
    if (use_nvme_) {
        // Optimizer states live on NVMe; DRAM holds the fp16 copy,
        // the fp32 gradient buffer, and a streaming window byte/param.
        return (hw::kFp16BytesPerParam + hw::kFp32BytesPerParam + 1.0) *
               setup.model.params() / n;
    }
    // Full model states (16P) plus the fp16 parameter copy (2P) the
    // swap machinery maintains, partitioned across ranks.
    return (hw::kModelStateBytesPerParam + hw::kFp16BytesPerParam) *
           setup.model.params() / n;
}

double
ZeroInfinitySystem::nvmeBytes(const TrainSetup &setup, const SearchCandidate &) const
{
    if (!use_nvme_)
        return 0.0;
    // fp32 master params + momentum + variance.
    return hw::kOptimStateBytesPerParam * setup.model.params() /
           setup.cluster.totalSuperchips();
}

IterationResult
ZeroInfinitySystem::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double layers = cfg.layers;
    const double params = cfg.params();
    const double n = setup.cluster.totalSuperchips();
    const double layer_params = params / layers;
    const PassTimes layer = builder.passTimes(cand, layers);

    // Each rank fetches its 1/N shard and all-gathers across ranks;
    // the host transfer goes through the small staging granule, which
    // is the bandwidth-killing behaviour §5.2 calls out.
    const double shard_bytes = hw::kFp16BytesPerParam * layer_params / n;
    const double fetch_time = builder.chunkedTransferTime(
        shard_bytes, kStagingGranule, /*pinned=*/true, kPerChunkOverhead);
    const double gather_time =
        n > 1 ? builder.coll().allGather(hw::kFp16BytesPerParam *
                                         layer_params)
              : 0.0;

    // Per layer and pass: fetch (+ all-gather) + compute; the last pass
    // adds up to three offload tasks per layer; the epilogue adds the
    // norm plus up to four tasks per layer (NVMe r/w, adam, cast).
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    const std::size_t per_layer = n > 1 ? 3 : 2;
    builder.reserve(accum_steps * 2 * per_layer * layer_count +
                        (3 + 4) * layer_count + 1,
                    accum_steps * 6 * layer_count + 9 * layer_count + 1);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> grad_casts;
    grad_casts.reserve(layer_count);
    std::vector<sim::TaskId> per_layer_cast(cfg.layers, sim::kInvalidTask);

    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            // Fetch this layer's params from host (prefetch: depends
            // only on link availability), then all-gather, then compute.
            const sim::TaskId fetch = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm, "h2d L" + std::to_string(l),
                fetch_time, shard_bytes, {});
            sim::TaskId ready = fetch;
            if (n > 1)
                ready = builder.onNic("ag", gather_time, {fetch});
            std::vector<sim::TaskId> deps{ready};
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            prev = builder.onGpu("fwd L" + std::to_string(l), layer.fwd,
                                 std::move(deps));
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            const sim::TaskId fetch = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm, "h2d' L" + std::to_string(l),
                fetch_time, shard_bytes, {});
            sim::TaskId ready = fetch;
            if (n > 1)
                ready = builder.onNic("ag'", gather_time, {fetch});
            prev = builder.onGpu("bwd L" + std::to_string(l), layer.bwd,
                                 {prev, ready});
            if (!last)
                continue;
            sim::TaskId grads = prev;
            if (n > 1) {
                grads = builder.onNic(
                    "rs", builder.coll().reduceScatter(
                              hw::kFp16BytesPerParam * layer_params),
                    {grads});
            }
            const sim::TaskId out = builder.onTransfer(
                hw::kTierHbm, hw::kTierDdr,
                "d2h g L" + std::to_string(l),
                builder.chunkedTransferTime(shard_bytes, kStagingGranule,
                                            /*pinned=*/true,
                                            kPerChunkOverhead),
                shard_bytes, {grads});
            per_layer_cast[l] = builder.onCpu(
                "cast g", builder.cpuCastTime(layer_params / n), {out});
            grad_casts.push_back(per_layer_cast[l]);
        }
    }

    // STE synchronization: global norm over the fp32 shard, then the
    // CPU optimizer per layer. Updated params stay in host DRAM (the
    // next iteration's fetches pick them up), but the fp16 shadow copy
    // must be refreshed (a CPU cast per layer).
    const sim::TaskId norm = builder.onCpu(
        "grad-norm+check",
        setup.cluster.node.superchip.cpu.memTime(4.0 * params / n),
        grad_casts);
    sim::TaskId last_opt = norm;
    for (std::uint32_t l = 0; l < cfg.layers; ++l) {
        std::vector<sim::TaskId> opt_deps{norm, per_layer_cast[l]};
        const double opt_bytes =
            hw::kOptimStateBytesPerParam * layer_params / n;
        if (use_nvme_) {
            // Stream this layer's optimizer states in from NVMe
            // (prefetchable) and write them back after the update.
            opt_deps.push_back(builder.onTransfer(
                hw::kTierNvme, hw::kTierDdr,
                "nvme-r L" + std::to_string(l),
                builder.nvmeTime(opt_bytes), opt_bytes, {}));
        }
        const sim::TaskId opt = builder.onCpu(
            "adam L" + std::to_string(l),
            builder.cpuAdamTime(layer_params / n, hw::AdamImpl::CpuAdam),
            std::move(opt_deps));
        if (use_nvme_) {
            builder.onTransfer(hw::kTierDdr, hw::kTierNvme,
                               "nvme-w L" + std::to_string(l),
                               builder.nvmeTime(opt_bytes), opt_bytes,
                               {opt});
        }
        last_opt = builder.onCpu(
            "cast p", builder.cpuCastTime(layer_params / n), {opt});
    }
    (void)last_opt;
    return builder.finish(builder.iterationFlops(cand));
}

} // namespace so::runtime
