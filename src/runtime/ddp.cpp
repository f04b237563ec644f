#include "runtime/ddp.h"

#include <vector>

#include "runtime/builder.h"

namespace so::runtime {

double
DdpSystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const auto states = model::StateSizes::forParams(setup.model.params());
    return model::gpuResidentBytes(states.totalBytes() +
                                   activationBytes(setup, cand));
}

double
DdpSystem::cpuBytes(const TrainSetup &, const SearchCandidate &) const
{
    return 0.0;
}

IterationResult
DdpSystem::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double layers = cfg.layers;
    const double params = cfg.params();
    const PassTimes layer = builder.passTimes(cand, layers);

    // accum_steps passes of fwd+bwd per layer, the bucketed all-reduces
    // on the last pass, and the optimizer step; roughly one dep edge per
    // task plus the optimizer's fan-in.
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    const std::size_t sync_count =
        builder.coll().ranks > 1 ? layer_count : 0;
    builder.reserve(accum_steps * 2 * layer_count + sync_count + 1,
                    accum_steps * 2 * layer_count + 2 * sync_count + 1);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> final_syncs;
    final_syncs.reserve(sync_count);
    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        // Forward.
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            prev = builder.onGpu({"fwd L", l}, layer.fwd,
                                 sim::DepView::optional(prev));
        }
        // Backward, reverse layer order; on the last accumulation step
        // each layer's gradient bucket is all-reduced as it appears
        // (DDP's bucketed overlap).
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            prev = builder.onGpu({"bwd L", l}, layer.bwd, {prev});
            if (last && builder.coll().ranks > 1) {
                const double grad_bytes = 2.0 * params / layers;
                final_syncs.push_back(builder.onNic(
                    {"allreduce L", l},
                    builder.coll().allReduce(grad_bytes), {prev}));
            }
        }
    }

    // GPU optimizer step after all gradients are synchronized.
    std::vector<sim::TaskId> step_deps = final_syncs;
    step_deps.push_back(prev);
    builder.onGpu("adam (gpu)", builder.gpuAdamTime(params),
                  std::move(step_deps));
    return builder.finish(builder.iterationFlops(cand));
}

} // namespace so::runtime
