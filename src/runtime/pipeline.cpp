#include "runtime/pipeline.h"

#include <algorithm>
#include <string>
#include <vector>

#include "runtime/builder.h"

namespace so::runtime {

std::vector<std::uint32_t>
PipelineSystem::searchVariants(const TrainSetup &setup) const
{
    if (stages_ != 0)
        return {stages_};
    const std::uint32_t gpus = setup.cluster.totalSuperchips();
    std::vector<std::uint32_t> counts;
    for (std::uint32_t p = 1; p <= gpus; p *= 2) {
        if (p > setup.model.layers)
            break;
        counts.push_back(p);
    }
    if (counts.empty())
        counts.push_back(1);
    return counts;
}

std::uint32_t
PipelineSystem::fallbackVariant(const TrainSetup &setup) const
{
    if (stages_ != 0)
        return stages_;
    return std::min(setup.cluster.totalSuperchips(),
                    std::max<std::uint32_t>(1, setup.model.layers));
}

double
PipelineSystem::gpuBytes(const TrainSetup &setup,
                         const SearchCandidate &cand) const
{
    const double p = stagesOf(cand);
    const auto states = model::StateSizes::forParams(setup.model.params());
    // 1F1B keeps up to P micro-batches of this stage's activations in
    // flight: P x (act of 1/P of the layers) ~= one micro-batch of the
    // whole model's activations.
    return model::gpuResidentBytes(states.totalBytes() / p +
                                   activationBytes(setup, cand));
}

double
PipelineSystem::cpuBytes(const TrainSetup &, const SearchCandidate &) const
{
    return 0.0;
}

IterationResult
PipelineSystem::simulate(const TrainSetup &setup,
                         const SearchCandidate &cand) const
{
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const std::uint32_t p = stagesOf(cand);
    const std::uint32_t gpus = setup.cluster.totalSuperchips();
    const std::uint32_t dp = std::max<std::uint32_t>(1, gpus / p);
    // Micro-batches per iteration (1F1B's M): the accumulation steps.
    const std::uint32_t m = cand.accum_steps;

    // Per-stage, per-micro-batch compute.
    const PassTimes stage = builder.passTimes(cand, p);

    // Inter-stage activation transfer per micro-batch boundary (fp16
    // hidden states, forward + gradient on the way back).
    const double boundary_bytes =
        2.0 * builder.microTokens(cand.micro_batch) *
        static_cast<double>(cfg.hidden);
    const double p2p =
        p > 1 ? boundary_bytes / setup.cluster.collectiveBandwidthPerGpu() +
                    setup.cluster.collectiveLatency()
              : 0.0;

    // Simulate the critical path through the *last* stage: it starts
    // after the fill (p-1 forward slots) and finishes after its own
    // m forwards + m backwards; the drain adds (p-1) backward slots on
    // the first stage, which the optimizer then follows.
    // Fill + m fwd/bwd pairs + drain + optional all-reduce + optimizer.
    builder.reserve(2 * static_cast<std::size_t>(m) + 4,
                    2 * static_cast<std::size_t>(m) + 6);

    sim::TaskId prev = sim::kInvalidTask;
    const double fill = (p - 1) * (stage.fwd + p2p);
    if (fill > 0.0)
        prev = builder.onGpu("pipeline-fill", fill, {});
    for (std::uint32_t i = 0; i < m; ++i) {
        prev = builder.onGpu({"fwd u", i}, stage.fwd,
                             sim::DepView::optional(prev));
        prev = builder.onGpu({"bwd u", i}, stage.bwd, {prev});
    }
    const double drain = (p - 1) * (stage.bwd + p2p);
    if (drain > 0.0)
        prev = builder.onGpu("pipeline-drain", drain, {prev});

    // DP gradient all-reduce of this stage's shard, then GPU Adam.
    std::vector<sim::TaskId> step_deps{prev};
    if (dp > 1) {
        hw::CollectiveCost dp_coll = builder.coll();
        dp_coll.ranks = dp;
        step_deps.push_back(builder.onNic(
            "dp-allreduce",
            dp_coll.allReduce(2.0 * cfg.params() / p), {prev}));
    }
    builder.onGpu("adam (gpu, 1/P)", builder.gpuAdamTime(cfg.params() / p),
                  std::move(step_deps));

    IterationResult res = builder.finish(builder.iterationFlops(cand, p));
    res.setExtra("stages", static_cast<double>(p));
    return res;
}

} // namespace so::runtime
