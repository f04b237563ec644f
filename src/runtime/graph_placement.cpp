#include "runtime/graph_placement.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::runtime {

namespace {

/** GPU working set beyond activations: live layers + staging pools. */
constexpr double kStagingBytes = 4.0e9;

/** DDR share of an NVMe-spilled layer: the fp32 gradient buffer. */
constexpr double kSpillDdrBytesPerParam = hw::kFp32BytesPerParam;

/** NVMe share of a spilled layer: optimizer states + fp16 shard. */
constexpr double kSpillNvmeBytesPerParam =
    hw::kOptimStateBytesPerParam + hw::kFp16BytesPerParam;

/** Full per-param state share of a DDR-resident layer. */
constexpr double kFullBytesPerParam =
    hw::kModelStateBytesPerParam + hw::kFp16BytesPerParam;

} // namespace

double
GraphPlacementSystem::layerShare(const TrainSetup &setup) const
{
    return setup.model.paramsPerLayer() /
           setup.cluster.totalSuperchips();
}

GraphPlacementSystem::Placement
GraphPlacementSystem::placement(const TrainSetup &setup,
                                const SearchCandidate &cand) const
{
    Placement place;
    const auto layers = static_cast<std::uint32_t>(setup.model.layers);
    const double share = layerShare(setup);

    // NVMe spill: walk the optimizer-access order (last layers have the
    // longest grads-ready -> state-needed lead time) and move whole
    // layers until the DDR demand fits. Without an NVMe tier nothing
    // spills and the DDR overflow surfaces in the fit check.
    if (setup.cluster.node.superchip.nvme_bytes > 0.0) {
        const double cap = cpuCapacity(setup);
        const double demand =
            kFullBytesPerParam * share * static_cast<double>(layers);
        if (demand > cap) {
            const double per_layer_relief =
                (kFullBytesPerParam - kSpillDdrBytesPerParam) * share;
            place.nvme_layers = static_cast<std::uint32_t>(std::min<double>(
                std::ceil((demand - cap) / per_layer_relief), layers));
        }
    }

    // HBM residency: whatever device slack the candidate's activations
    // leave pins a prefix of fp16 layer weights (the layers reused
    // soonest when the next forward starts), skipping their fetch.
    const double slack = gpuCapacity(setup) - gpuBytes(setup, cand);
    const double resident_cost =
        hw::kFp16BytesPerParam * setup.model.paramsPerLayer();
    if (slack > 0.0 && resident_cost > 0.0) {
        // A spilled layer streams from NVMe by construction; the
        // resident prefix stops where the spilled suffix begins.
        place.hbm_layers = static_cast<std::uint32_t>(std::min<double>(
            std::floor(slack / resident_cost),
            layers - place.nvme_layers));
    }
    return place;
}

double
GraphPlacementSystem::gpuBytes(const TrainSetup &setup,
                               const SearchCandidate &cand) const
{
    // Base working set only: HBM-resident layers consume the *slack*
    // above this (same retained-capacity pattern as SuperOffload's
    // retained buckets), so the fit check stays placement-independent.
    const double working = 3.0 * 2.0 * setup.model.paramsPerLayer();
    return model::gpuResidentBytes(working + kStagingBytes +
                                   activationBytes(setup, cand));
}

double
GraphPlacementSystem::cpuBytes(const TrainSetup &setup,
                               const SearchCandidate &cand) const
{
    const auto layers = static_cast<std::uint32_t>(setup.model.layers);
    const std::uint32_t spilled =
        std::min(placement(setup, cand).nvme_layers, layers);
    const double share = layerShare(setup);
    return kFullBytesPerParam * share *
               static_cast<double>(layers - spilled) +
           kSpillDdrBytesPerParam * share * static_cast<double>(spilled);
}

double
GraphPlacementSystem::nvmeBytes(const TrainSetup &setup,
                                const SearchCandidate &cand) const
{
    return kSpillNvmeBytesPerParam * layerShare(setup) *
           static_cast<double>(placement(setup, cand).nvme_layers);
}

IterationResult
GraphPlacementSystem::simulate(const TrainSetup &setup,
                               const SearchCandidate &cand) const
{
    IterBuilder builder(setup);
    const Placement place = buildGraph(builder, setup, cand);
    IterationResult res = builder.finish(builder.iterationFlops(cand));
    res.notes = "hbm_layers=" + std::to_string(place.hbm_layers) +
                ", nvme_layers=" + std::to_string(place.nvme_layers);
    res.setExtra("hbm_layers", place.hbm_layers);
    res.setExtra("nvme_layers", place.nvme_layers);
    res.setExtra("ddr_layers",
                 static_cast<double>(setup.model.layers -
                                     place.hbm_layers -
                                     place.nvme_layers));
    return res;
}

GraphPlacementSystem::Placement
GraphPlacementSystem::buildGraph(IterBuilder &builder,
                                 const TrainSetup &setup,
                                 const SearchCandidate &cand) const
{
    const std::uint32_t accum_steps = cand.accum_steps;
    const model::ModelConfig &cfg = setup.model;
    const auto layer_count = static_cast<std::uint32_t>(cfg.layers);
    const double n = setup.cluster.totalSuperchips();
    const bool multi = n > 1;
    const double layer_params = cfg.paramsPerLayer();
    const double share = layer_params / n;

    const Placement place = placement(setup, cand);
    const std::uint32_t first_nvme = layer_count - place.nvme_layers;
    const PassTimes layer = builder.passTimes(cand, cfg.layers);

    const double weight_bytes = hw::kFp16BytesPerParam * share;
    const double fetch_time = builder.h2dTime(weight_bytes);
    const double gather_time =
        multi ? builder.coll().allGather(hw::kFp16BytesPerParam *
                                         layer_params)
              : 0.0;

    // Exact counts of the loops below. Per layer and pass: the compute
    // task, plus for a streamed layer its fetch (with an NVMe stage when
    // spilled) and, multi-chip, its all-gather. After the last backward:
    // reduce-scatter (multi-chip), move and cast. Then the norm, and per
    // layer Adam, cast and return, plus a spilled layer's state read and
    // write-back.
    {
        const auto l = static_cast<std::size_t>(layer_count);
        const std::size_t streamed = l - place.hbm_layers;
        const std::size_t spilled = place.nvme_layers;
        const std::size_t gathered = multi ? streamed : 0;
        const std::size_t rs = multi ? l : 0;
        const std::size_t passes = 2 * static_cast<std::size_t>(accum_steps);
        const std::size_t pass = l + streamed + spilled + gathered;
        // Every compute task but the first waits on its predecessor and
        // on its layer's fetch when streamed; the norm waits on every
        // cast, and Adam on the norm, the cast and a spilled read.
        builder.reserve(passes * pass + rs + 2 * l + 1 + 3 * l + 2 * spilled,
                        passes * pass - 1 + rs + 2 * l + l + 4 * l +
                            2 * spilled);
    }

    // Streamed layers fetch per pass; spilled layers fetch through the
    // chained NVMe -> DDR -> HBM route (the drive leg prefetches, so it
    // hides behind compute unless the drive is the bottleneck). The
    // backward pass's stems carry a prime: "h2d w'".
    const auto fetchLayer = [&](std::uint32_t l, const char *drive_stem,
                                const char *link_stem) -> sim::TaskId {
        if (l < place.hbm_layers)
            return sim::kInvalidTask; // device-resident, nothing to move
        sim::TaskId staged = sim::kInvalidTask;
        if (l >= first_nvme) {
            staged = builder.onTransfer(
                hw::kTierNvme, hw::kTierDdr, {drive_stem, l},
                builder.nvmeTime(weight_bytes), weight_bytes, {});
        }
        sim::TaskId ready = builder.onTransfer(
            hw::kTierDdr, hw::kTierHbm, {link_stem, l}, fetch_time,
            weight_bytes, sim::DepView::optional(staged));
        if (multi)
            ready = builder.onNic("ag", gather_time, {ready});
        return ready;
    };

    sim::TaskId prev = sim::kInvalidTask;
    std::vector<sim::TaskId> cast_done(layer_count, sim::kInvalidTask);
    std::vector<sim::TaskId> casts;
    casts.reserve(layer_count);
    std::vector<sim::TaskId> deps; // cleared per task

    for (std::uint32_t step = 0; step < accum_steps; ++step) {
        for (std::uint32_t l = 0; l < layer_count; ++l) {
            const sim::TaskId ready = fetchLayer(l, "nvme-r w", "h2d w");
            deps.clear();
            if (ready != sim::kInvalidTask)
                deps.push_back(ready);
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            prev = builder.onGpu({"fwd L", l}, layer.fwd, deps);
        }
        const bool last = step + 1 == accum_steps;
        for (std::uint32_t li = 0; li < layer_count; ++li) {
            // Backward materializes gradients last-to-first.
            const std::uint32_t l = layer_count - 1 - li;
            const sim::TaskId ready = fetchLayer(l, "nvme-r w'", "h2d w'");
            deps.clear();
            if (ready != sim::kInvalidTask)
                deps.push_back(ready);
            if (prev != sim::kInvalidTask)
                deps.push_back(prev);
            prev = builder.onGpu({"bwd L", l}, layer.bwd, deps);
            if (!last)
                continue;

            sim::TaskId grads = prev;
            if (multi) {
                grads = builder.onNic(
                    {"rs g", l},
                    builder.coll().reduceScatter(hw::kFp16BytesPerParam *
                                                 layer_params),
                    {grads});
            }
            const double grad_bytes = hw::kFp16BytesPerParam * share;
            const sim::TaskId moved = builder.onTransfer(
                hw::kTierHbm, hw::kTierDdr, {"d2h g", l},
                builder.d2hTime(grad_bytes), grad_bytes, {grads});
            cast_done[l] = builder.onCpu({"cast g", l},
                                         builder.cpuCastTime(share),
                                         {moved});
            casts.push_back(cast_done[l]);
        }
    }

    const sim::TaskId norm = builder.onCpu(
        "grad-norm+check",
        setup.cluster.node.superchip.cpu.memTime(hw::kFp32BytesPerParam *
                                                 cfg.params() / n),
        casts);

    const double opt_bytes = hw::kOptimStateBytesPerParam * share;
    for (std::uint32_t l = 0; l < layer_count; ++l) {
        deps.assign({norm, cast_done[l]});
        if (l >= first_nvme) {
            // Spilled layer: stage its optimizer states in first. The
            // read depends on nothing, so it prefetches during backward.
            deps.push_back(builder.onTransfer(
                hw::kTierNvme, hw::kTierDdr,
                {"nvme-r s", l},
                builder.nvmeTime(opt_bytes), opt_bytes, {}));
        }
        const sim::TaskId opt = builder.onCpu(
            {"adam L", l},
            builder.cpuAdamTime(share, hw::AdamImpl::GraceAdam), deps);
        const sim::TaskId cast = builder.onCpu(
            {"cast p", l}, builder.cpuCastTime(share),
            {opt});
        builder.onTransfer(hw::kTierDdr, hw::kTierHbm,
                           {"h2d p", l},
                           builder.h2dTime(weight_bytes), weight_bytes,
                           {cast});
        if (l >= first_nvme) {
            const double back = opt_bytes + weight_bytes;
            builder.onTransfer(hw::kTierDdr, hw::kTierNvme,
                               {"nvme-w s", l},
                               builder.nvmeTime(back), back, {cast});
        }
    }

    return place;
}

} // namespace so::runtime
