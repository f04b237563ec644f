#include "core/superoffload_ulysses.h"

#include <string>
#include <vector>

#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::core {

using runtime::IterBuilder;
using runtime::IterationResult;
using runtime::kSteadyStateIterations;
using runtime::PassTimes;
using runtime::SearchCandidate;
using runtime::TrainSetup;

double
SuperOffloadUlyssesSystem::gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    // Weight-flow working set (~2 layers in flight, fp16 + fp32-wide
    // staging under SAC) plus sequence-sharded activations.
    const double working = 2.0 * 6.0 * setup.model.paramsPerLayer();
    return model::gpuResidentBytes(
        working +
        activationBytes(setup, cand, setup.cluster.totalSuperchips()));
}

double
SuperOffloadUlyssesSystem::cpuBytes(const TrainSetup &setup, const SearchCandidate &) const
{
    const double n = setup.cluster.totalSuperchips();
    // Full model states + streamed fp16 copy, ZeRO-3 partitioned.
    return (hw::kModelStateBytesPerParam + hw::kFp16BytesPerParam) *
           setup.model.params() / n;
}

IterationResult
SuperOffloadUlyssesSystem::simulate(const TrainSetup &setup,
                    const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double layers = cfg.layers;
    const double params = cfg.params();
    const double n = setup.cluster.totalSuperchips();
    const double layer_params = params / layers;
    const double layer_shard = layer_params / n;
    const PassTimes layer = builder.passTimes(cand, layers, n);

    const double a2a_bytes = 2.0 * static_cast<double>(cand.micro_batch) *
                             setup.seq * cfg.hidden / n;
    const double a2a = n > 1 ? builder.coll().allToAll(a2a_bytes) : 0.0;

    // Weight stream: fetch the local shard from Grace (64 MB-bucketed,
    // so the link runs saturated), then all-gather across ranks.
    const double fetch_time = builder.h2dTime(2.0 * layer_shard);
    const double gather_time =
        n > 1 ? builder.coll().allGather(2.0 * layer_params) : 0.0;

    std::vector<sim::TaskId> first_fwd(kSteadyStateIterations,
                                       sim::kInvalidTask);
    std::vector<sim::TaskId> opt_prev(cfg.layers, sim::kInvalidTask);

    // Per layer and pass: fetch (+ gather, a2a) + compute; the last
    // pass adds six offload/optimizer tasks per layer. Deps average
    // about two per task.
    {
        const auto lc = static_cast<std::size_t>(cfg.layers);
        const std::size_t per_layer = n > 1 ? 4 : 2;
        const std::size_t per_iter =
            static_cast<std::size_t>(accum_steps) * 2 * per_layer * lc +
            6 * lc;
        builder.reserve(kSteadyStateIterations * per_iter,
                        kSteadyStateIterations * per_iter * 2);
    }

    sim::TaskId prev = sim::kInvalidTask;
    for (std::uint32_t it = 0; it < kSteadyStateIterations; ++it) {
        std::vector<sim::TaskId> opt_done(cfg.layers, sim::kInvalidTask);
        for (std::uint32_t step = 0; step < accum_steps; ++step) {
            for (std::uint32_t l = 0; l < cfg.layers; ++l) {
                // Prefetchable stream of this layer's weights; waits
                // for last iteration's update of the same layer.
                std::vector<sim::TaskId> fetch_deps;
                if (step == 0 && opt_prev[l] != sim::kInvalidTask)
                    fetch_deps.push_back(opt_prev[l]);
                sim::TaskId ready = builder.onTransfer(
                    hw::kTierDdr, hw::kTierHbm,
                    "h2d w L" + std::to_string(l), fetch_time,
                    2.0 * layer_shard, std::move(fetch_deps));
                if (n > 1)
                    ready = builder.onNic("ag", gather_time, {ready});
                std::vector<sim::TaskId> deps{ready};
                if (prev != sim::kInvalidTask)
                    deps.push_back(prev);
                prev = builder.onGpu("fwd L" + std::to_string(l),
                                     layer.fwd, std::move(deps));
                if (first_fwd[it] == sim::kInvalidTask)
                    first_fwd[it] = prev;
                if (n > 1)
                    prev = builder.onNic("a2a", 2.0 * a2a, {prev});
            }
            const bool last = step + 1 == accum_steps;
            for (std::uint32_t l = cfg.layers; l-- > 0;) {
                sim::TaskId ready = builder.onTransfer(
                    hw::kTierDdr, hw::kTierHbm,
                    "h2d w' L" + std::to_string(l), fetch_time,
                    2.0 * layer_shard, {});
                if (n > 1)
                    ready = builder.onNic("ag'", gather_time, {ready});
                prev = builder.onGpu("bwd L" + std::to_string(l),
                                     layer.bwd, {prev, ready});
                if (n > 1)
                    prev = builder.onNic("a2a'", 2.0 * a2a, {prev});
                if (!last)
                    continue;
                // SAC swap-out (fp32) + speculative GraceAdam + host
                // fp16 refresh; no global synchronization (STV).
                sim::TaskId grads = prev;
                if (n > 1) {
                    grads = builder.onNic(
                        "rs g",
                        builder.coll().reduceScatter(2.0 * layer_params),
                        {grads});
                }
                const sim::TaskId cast = builder.onGpu(
                    "cast g(gpu)", builder.gpuCastTime(layer_shard),
                    {grads}, 1);
                const sim::TaskId out = builder.onTransfer(
                    hw::kTierHbm, hw::kTierDdr,
                    "d2h g L" + std::to_string(l),
                    builder.d2hTime(4.0 * layer_shard),
                    4.0 * layer_shard, {cast});
                const sim::TaskId opt = builder.onCpu(
                    "adam L" + std::to_string(l),
                    builder.cpuAdamTime(layer_shard,
                                        hw::AdamImpl::GraceAdam),
                    {out});
                builder.onCpuBg(
                    "validate",
                    setup.cluster.node.superchip.cpu.memTime(
                        4.0 * layer_shard),
                    {out});
                opt_done[l] = builder.onCpu(
                    "cast p(cpu)", builder.cpuCastTime(layer_shard),
                    {opt});
            }
        }
        opt_prev = opt_done;
    }
    return builder.finishSteadyState(builder.iterationFlops(cand, n),
                                     first_fwd);
}

} // namespace so::core
