#include "runtime/zero.h"

#include <string>
#include <vector>

#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

// ---------------------------------------------------------------- ZeRO-2

double
Zero2System::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const double n = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    // Full fp16 params + full fp16 grad buffer (reduced in place), plus
    // this rank's 12P/N optimizer shard.
    const double states = 2.0 * hw::kFp16BytesPerParam * params +
                          hw::kOptimStateBytesPerParam * params / n;
    return model::gpuResidentBytes(states + activationBytes(setup, cand));
}

double
Zero2System::cpuBytes(const TrainSetup &, const SearchCandidate &) const
{
    return 0.0;
}

IterationResult
Zero2System::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double layers = cfg.layers;
    const double params = cfg.params();
    const double n = setup.cluster.totalSuperchips();
    const PassTimes layer = builder.passTimes(cand, layers);

    // accum_steps fwd+bwd passes per layer, last-pass reduce-scatters,
    // optimizer, optional all-gather.
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    const std::size_t sync_count = n > 1 ? layer_count : 0;
    builder.reserve(accum_steps * 2 * layer_count + sync_count + 2,
                    accum_steps * 2 * layer_count + 2 * sync_count + 3);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> final_syncs;
    final_syncs.reserve(sync_count);
    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            std::vector<sim::TaskId> deps;
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            prev = builder.onGpu("fwd L" + std::to_string(l), layer.fwd,
                                 std::move(deps));
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            prev = builder.onGpu("bwd L" + std::to_string(l), layer.bwd,
                                 {prev});
            if (last && n > 1) {
                // Bucketed reduce-scatter overlapped with backward.
                const double grad_bytes = 2.0 * params / layers;
                final_syncs.push_back(builder.onNic(
                    "reduce-scatter",
                    builder.coll().reduceScatter(grad_bytes), {prev}));
            }
        }
    }

    // Optimizer step on this rank's P/N shard, then all-gather the
    // updated fp16 parameters (exposed: the next forward needs them).
    std::vector<sim::TaskId> step_deps = final_syncs;
    step_deps.push_back(prev);
    const sim::TaskId opt = builder.onGpu(
        "adam (gpu, 1/N)", builder.gpuAdamTime(params / n),
        std::move(step_deps));
    if (n > 1) {
        builder.onNic("allgather params",
                      builder.coll().allGather(2.0 * params), {opt});
    }
    return builder.finish(builder.iterationFlops(cand));
}

// ---------------------------------------------------------------- ZeRO-3

double
Zero3System::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const double n = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    // Fully sharded 16P/N, plus all-gather/reduce-scatter communication
    // buffers (~2P/N), plus the gathered working set of ~2 layers of
    // fp16 parameters kept live by prefetching.
    const double working =
        2.0 * 2.0 * setup.model.paramsPerLayer();
    return model::gpuResidentBytes(
        (hw::kModelStateBytesPerParam + hw::kFp16BytesPerParam) * params /
            n +
        working + activationBytes(setup, cand));
}

double
Zero3System::cpuBytes(const TrainSetup &, const SearchCandidate &) const
{
    return 0.0;
}

IterationResult
Zero3System::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double layers = cfg.layers;
    const double params = cfg.params();
    const double n = setup.cluster.totalSuperchips();
    const PassTimes layer = builder.passTimes(cand, layers);

    const double layer_param_bytes = 2.0 * params / layers;
    const double gather_time =
        n > 1 ? builder.coll().allGather(layer_param_bytes) : 0.0;

    // Per layer and pass: an optional all-gather plus the compute task,
    // last-pass reduce-scatters, and the optimizer; fwd tasks carry up
    // to two deps each.
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    const std::size_t per_pass = n > 1 ? 2 * layer_count : layer_count;
    const std::size_t sync_count = n > 1 ? layer_count : 0;
    builder.reserve(accum_steps * 2 * per_pass + sync_count + 1,
                    accum_steps * 4 * layer_count + 2 * sync_count + 1);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> final_syncs;
    final_syncs.reserve(sync_count);
    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            // Parameter all-gather can prefetch ahead of compute (it
            // depends only on earlier NIC traffic, not on this layer's
            // compute), so it overlaps when the NIC keeps up.
            sim::TaskId gathered = sim::kInvalidTask;
            if (n > 1) {
                gathered = builder.onNic("ag L" + std::to_string(l),
                                         gather_time, {});
            }
            std::vector<sim::TaskId> deps;
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            if (gathered != sim::kInvalidTask)
                deps.push_back(gathered);
            prev = builder.onGpu("fwd L" + std::to_string(l), layer.fwd,
                                 std::move(deps));
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            sim::TaskId gathered = sim::kInvalidTask;
            if (n > 1) {
                gathered = builder.onNic("ag' L" + std::to_string(l),
                                         gather_time, {});
            }
            std::vector<sim::TaskId> deps{prev};
            if (gathered != sim::kInvalidTask)
                deps.push_back(gathered);
            prev = builder.onGpu("bwd L" + std::to_string(l), layer.bwd,
                                 std::move(deps));
            if (last && n > 1) {
                const double grad_bytes = 2.0 * params / layers;
                final_syncs.push_back(builder.onNic(
                    "reduce-scatter",
                    builder.coll().reduceScatter(grad_bytes), {prev}));
            }
        }
    }

    // Optimizer on the local shard; no parameter all-gather afterwards
    // (ZeRO-3 gathers lazily at next use, which the next iteration's
    // per-layer gathers already model).
    std::vector<sim::TaskId> step_deps = final_syncs;
    step_deps.push_back(prev);
    builder.onGpu("adam (gpu, 1/N)", builder.gpuAdamTime(params / n),
                  std::move(step_deps));
    return builder.finish(builder.iterationFlops(cand));
}

} // namespace so::runtime
