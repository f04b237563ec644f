#include "runtime/megatron.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "runtime/builder.h"

namespace so::runtime {

double
MegatronSystem::activationShare(std::uint32_t mp)
{
    // Attention/MLP interiors are sharded 1/mp; layer inputs, residual
    // stream, and layer norms remain replicated.
    return 0.3 + 0.7 / static_cast<double>(mp);
}

std::vector<std::uint32_t>
MegatronSystem::searchVariants(const TrainSetup &setup) const
{
    if (mp_ != 0)
        return {mp_};

    // Auto mode: §5.2 "we use a MP degree that gives the best
    // performance". Megatron-LM caps the tensor-parallel degree at 8
    // (attention-head divisibility and the NVLink domain); cross-node
    // TP up to that cap is allowed — it is how Megatron reaches its
    // largest models in Fig. 13 — but is rarely the fastest choice,
    // which the search discovers on its own.
    const std::uint32_t gpus = setup.cluster.totalSuperchips();
    const std::uint32_t max_mp = std::min<std::uint32_t>(gpus, 8);
    std::vector<std::uint32_t> degrees;
    for (std::uint32_t mp = 1; mp <= max_mp; mp *= 2)
        degrees.push_back(mp);
    return degrees;
}

std::uint32_t
MegatronSystem::fallbackVariant(const TrainSetup &setup) const
{
    return searchVariants(setup).back();
}

double
MegatronSystem::gpuBytes(const TrainSetup &setup,
                         const SearchCandidate &cand) const
{
    const std::uint32_t mp_deg = degreeOf(cand);
    const double mp = mp_deg;
    const auto states = model::StateSizes::forParams(setup.model.params());
    const double act =
        activationBytes(setup, cand) * activationShare(mp_deg);
    return model::gpuResidentBytes(states.totalBytes() / mp + act);
}

double
MegatronSystem::cpuBytes(const TrainSetup &, const SearchCandidate &) const
{
    return 0.0;
}

IterationResult
MegatronSystem::simulate(const TrainSetup &setup,
                         const SearchCandidate &cand) const
{
    const std::uint32_t micro_batch = cand.micro_batch;
    const bool checkpointing = cand.checkpointing;
    const std::uint32_t accum_steps = cand.accum_steps;
    const std::uint32_t mp_deg = degreeOf(cand);

    IterBuilder builder(setup);
    const model::ModelConfig &cfg = setup.model;
    const double mp = mp_deg;
    const double layers = cfg.layers;
    const std::uint32_t gpus = setup.cluster.totalSuperchips();
    const std::uint32_t dp = std::max<std::uint32_t>(1, gpus / mp_deg);

    const model::IterationFlops micro_flops = model::iterationFlops(
        cfg, micro_batch, setup.seq, checkpointing);
    const double tokens = builder.microTokens(micro_batch);

    // Per-layer compute, divided across the MP group. Tensor slicing
    // narrows every GEMM to 1/mp of its width, which costs sustained
    // efficiency (tile quantization, more kernel launches per FLOP).
    const double tp_penalty =
        1.0 + (mp_deg > 1 ? 0.15 * std::log2(static_cast<double>(mp))
                          : 0.0);
    const double fwd_layer =
        (builder.gemmTime(micro_flops.fwd_gemm / mp, tokens) * tp_penalty +
         builder.attnTime(micro_flops.fwd_attn / mp)) /
        layers;
    const double bwd_layer =
        (builder.gemmTime((micro_flops.bwd_gemm +
                           micro_flops.recompute_gemm) / mp, tokens) *
             tp_penalty +
         builder.attnTime((micro_flops.bwd_attn +
                           micro_flops.recompute_attn) / mp)) /
        layers;

    // TP all-reduces run over NVLink while the group fits in a node,
    // otherwise over the inter-node fabric.
    hw::CollectiveCost tp_coll;
    tp_coll.ranks = mp_deg;
    if (mp_deg <= setup.cluster.node.superchips_per_node) {
        tp_coll.bw_per_gpu = setup.cluster.node.intra_node.curve().peak();
        tp_coll.latency = setup.cluster.node.intra_node.latency();
    } else {
        tp_coll.bw_per_gpu = std::min(
            setup.cluster.node.intra_node.curve().peak(),
            setup.cluster.node.inter_node.curve().peak());
        tp_coll.latency = setup.cluster.node.inter_node.latency();
    }
    // Two all-reduces of the activation tensor per layer per pass.
    const double act_bytes =
        2.0 * tokens * static_cast<double>(cfg.hidden);
    const double tp_sync = 2.0 * tp_coll.allReduce(act_bytes);

    // DP gradient all-reduce (cross-node when multi-node).
    hw::CollectiveCost dp_coll = builder.coll();
    dp_coll.ranks = dp;

    // Per layer and pass: compute plus optional TP sync; last pass adds
    // the DP all-reduces; then the optimizer.
    const auto layer_count = static_cast<std::size_t>(cfg.layers);
    const std::size_t per_layer = mp_deg > 1 ? 2 : 1;
    const std::size_t sync_count = dp > 1 ? layer_count : 0;
    builder.reserve(accum_steps * 2 * per_layer * layer_count +
                        sync_count + 1,
                    accum_steps * 2 * per_layer * layer_count +
                        2 * sync_count + 1);

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> final_syncs;
    final_syncs.reserve(sync_count);
    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < cfg.layers; ++l) {
            prev = builder.onGpu({"fwd L", l}, fwd_layer,
                                 sim::DepView::optional(prev));
            if (mp_deg > 1) {
                // TP sync is on the critical path of the layer.
                prev = builder.onNic("tp-ar", tp_sync, {prev});
            }
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t l = cfg.layers; l-- > 0;) {
            prev = builder.onGpu({"bwd L", l}, bwd_layer, {prev});
            if (mp_deg > 1)
                prev = builder.onNic("tp-ar", tp_sync, {prev});
            if (last && dp > 1) {
                const double grad_bytes = 2.0 * cfg.params() / mp / layers;
                final_syncs.push_back(builder.onNic(
                    "dp-allreduce", dp_coll.allReduce(grad_bytes), {prev}));
            }
        }
    }

    std::vector<sim::TaskId> step_deps = final_syncs;
    step_deps.push_back(prev);
    builder.onGpu("adam (gpu)", builder.gpuAdamTime(cfg.params() / mp),
                  std::move(step_deps));

    IterationResult res = builder.finish(builder.iterationFlops(cand, mp));
    res.setExtra("mp", mp);
    return res;
}

} // namespace so::runtime
