#include "runtime/fsdp_offload.h"

#include <string>
#include <vector>

#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

double
FsdpOffloadSystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    // Working set of the currently-gathered layer (plus one in flight).
    const double working = 2.0 * 2.0 * setup.model.paramsPerLayer();
    return model::gpuResidentBytes(working + activationBytes(setup, cand));
}

double
FsdpOffloadSystem::cpuBytes(const TrainSetup &setup, const SearchCandidate &) const
{
    const double n = setup.cluster.totalSuperchips();
    // fp32 params + optimizer + fp32 grads, sharded.
    return hw::kModelStateBytesPerParam * setup.model.params() / n;
}

IterationResult
FsdpOffloadSystem::simulate(const TrainSetup &setup,
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

    // FSDP CPU offload copies each shard in synchronously before the
    // layer runs: the H2D depends on the *previous GPU task*, so it
    // never overlaps compute (no prefetch), and the copies go through
    // pageable host memory (no pinned staging pool).
    const double shard_bytes = hw::kFp16BytesPerParam * layer_params / n;
    const double fetch_time =
        builder.h2dTime(shard_bytes, /*pinned=*/false);
    const double gather_time =
        n > 1 ? builder.coll().allGather(2.0 * layer_params) : 0.0;

    // Per layer and pass: fetch (+ gather) + compute; last pass adds up
    // to two offload tasks per layer; epilogue adds norm + optimizer.
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    const std::size_t per_layer = n > 1 ? 3 : 2;
    builder.reserve(accum_steps * 2 * per_layer * layer_count +
                        2 * layer_count + 2,
                    accum_steps * 2 * per_layer * layer_count +
                        3 * layer_count + 2);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> grad_arrivals(cfg.layers, sim::kInvalidTask);

    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            sim::TaskId ready = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm, {"h2d L", l}, fetch_time,
                shard_bytes, sim::DepView::optional(prev));
            if (n > 1)
                ready = builder.onNic("ag", gather_time, {ready});
            prev = builder.onGpu({"fwd L", l}, layer.fwd, {ready});
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            sim::TaskId ready = builder.onTransfer(
                hw::kTierDdr, hw::kTierHbm, {"h2d' L", l}, fetch_time,
                shard_bytes, {prev});
            if (n > 1)
                ready = builder.onNic("ag'", gather_time, {ready});
            prev = builder.onGpu({"bwd L", l}, layer.bwd, {ready});
            if (!last)
                continue;
            sim::TaskId grads = prev;
            if (n > 1) {
                grads = builder.onNic(
                    "rs", builder.coll().reduceScatter(2.0 * layer_params),
                    {grads});
            }
            grad_arrivals[l] = builder.onTransfer(
                hw::kTierHbm, hw::kTierDdr, {"d2h g L", l},
                builder.d2hTime(shard_bytes, /*pinned=*/false),
                shard_bytes, {grads});
        }
    }

    // Global norm, then PyTorch's unfused CPU Adam over the shard —
    // serialized, exposed, and slow (AdamImpl::Naive).
    std::vector<sim::TaskId> all_grads;
    all_grads.reserve(grad_arrivals.size());
    for (sim::TaskId id : grad_arrivals)
        all_grads.push_back(id);
    const sim::TaskId norm = builder.onCpu(
        "grad-norm+check",
        setup.cluster.node.superchip.cpu.memTime(4.0 * params / n),
        all_grads);
    builder.onCpu(
        "adam (torch.optim, per-tensor loop)",
        builder.cpuAdamTime(params / n, hw::AdamImpl::PyTorchLoop),
        {norm});
    return builder.finish(builder.iterationFlops(cand));
}

} // namespace so::runtime
