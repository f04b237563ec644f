#include "runtime/ulysses.h"

#include <string>
#include <vector>

#include "common/logging.h"
#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

UlyssesSystem::UlyssesSystem(std::uint32_t zero_stage)
    : zero_stage_(zero_stage)
{
    SO_ASSERT(zero_stage == 2 || zero_stage == 3,
              "Ulysses supports ZeRO stage 2 or 3, got ", zero_stage);
}

double
UlyssesSystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const double n = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    // Stage 2: fp16 params + grads replicated, optimizer sharded.
    // Stage 3: everything sharded, plus a 2-layer gathered working set
    // and communication buffers.
    const double states =
        zero_stage_ == 3
            ? (hw::kModelStateBytesPerParam + hw::kFp16BytesPerParam) *
                      params / n +
                  2.0 * 2.0 * setup.model.paramsPerLayer()
            : 2.0 * hw::kFp16BytesPerParam * params +
                  hw::kOptimStateBytesPerParam * params / n;
    return model::gpuResidentBytes(
        states +
        activationBytes(setup, cand, setup.cluster.totalSuperchips()));
}

double
UlyssesSystem::cpuBytes(const TrainSetup &, const SearchCandidate &) const
{
    return 0.0;
}

IterationResult
UlyssesSystem::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double layers = cfg.layers;
    const double params = cfg.params();
    const double n = setup.cluster.totalSuperchips();

    // Each rank runs s/N of every sequence of the micro-batch.
    const PassTimes layer = builder.passTimes(cand, layers, n);

    // All-to-all around attention: each rank exchanges its activation
    // shard (fp16), twice forward and twice backward per layer.
    const double a2a_bytes = 2.0 * static_cast<double>(cand.micro_batch) *
                             setup.seq * cfg.hidden / n;
    const double a2a = n > 1 ? builder.coll().allToAll(a2a_bytes) : 0.0;

    // Stage-3 per-layer parameter all-gathers (prefetchable).
    const double gather_time =
        zero_stage_ == 3 && n > 1
            ? builder.coll().allGather(2.0 * params / layers)
            : 0.0;

    // Per layer and pass: compute, optional stage-3 gather, optional
    // all-to-all; last pass adds reduce-scatters; then optimizer and
    // the stage-2 refresh.
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    std::size_t per_layer = 1;
    if (gather_time > 0.0)
        ++per_layer;
    if (n > 1)
        ++per_layer;
    const std::size_t sync_count = n > 1 ? layer_count : 0;
    builder.reserve(accum_steps * 2 * per_layer * layer_count +
                        sync_count + 2,
                    accum_steps * 2 * (per_layer + 1) * layer_count +
                        2 * sync_count + 3);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> final_syncs;
    final_syncs.reserve(sync_count);
    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            std::vector<sim::TaskId> deps;
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            if (gather_time > 0.0)
                deps.push_back(builder.onNic("ag", gather_time, {}));
            prev = builder.onGpu("fwd L" + std::to_string(l), layer.fwd,
                                 std::move(deps));
            if (n > 1)
                prev = builder.onNic("a2a", 2.0 * a2a, {prev});
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            std::vector<sim::TaskId> deps{prev};
            if (gather_time > 0.0)
                deps.push_back(builder.onNic("ag'", gather_time, {}));
            prev = builder.onGpu("bwd L" + std::to_string(l), layer.bwd,
                                 std::move(deps));
            if (n > 1)
                prev = builder.onNic("a2a'", 2.0 * a2a, {prev});
            if (last && n > 1) {
                // Gradients are identical-shape replicas under SP and
                // reduce across ranks like DP.
                const double grad_bytes = 2.0 * params / layers;
                final_syncs.push_back(builder.onNic(
                    "rs g", builder.coll().reduceScatter(grad_bytes),
                    {prev}));
            }
        }
    }

    std::vector<sim::TaskId> step_deps = final_syncs;
    step_deps.push_back(prev);
    const sim::TaskId opt = builder.onGpu(
        "adam (gpu, 1/N)", builder.gpuAdamTime(params / n),
        std::move(step_deps));
    if (n > 1 && zero_stage_ == 2) {
        // Stage 3 gathers lazily per layer; stage 2 must refresh the
        // full fp16 replica before the next forward.
        builder.onNic("allgather params",
                      builder.coll().allGather(2.0 * params), {opt});
    }

    // Report the per-rank share so TFLOPS/MFU are per GPU.
    return builder.finish(builder.iterationFlops(cand, n));
}

} // namespace so::runtime
