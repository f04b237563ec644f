#include "core/superoffload.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/logging.h"
#include "hw/constants.h"
#include "runtime/builder.h"

namespace so::core {

using runtime::IterBuilder;
using runtime::IterationResult;
using runtime::kSteadyStateIterations;
using runtime::PassTimes;
using runtime::SearchCandidate;
using runtime::TrainSetup;

namespace {

constexpr std::uint32_t kMaxBuckets =
    SuperOffloadSystem::kMaxTransferBuckets;

/** Bucket working buffers resident on the GPU (in + out in flight). */
constexpr double kStagingBuckets = 4.0;

/**
 * Host-side cost per CPU-bound bucket beyond the Adam arithmetic:
 * dispatch of the swap/step pipeline stage and first-touch cache
 * warm-up of the bucket's optimizer states. This is what makes the
 * Grace CPU the per-iteration straggler that bucket repartitioning
 * (§4.3) exists to absorb; calibrated against the paper's Table 2.
 */
constexpr double kCpuBucketOverhead = 5.0e-3;

} // namespace

SuperOffloadSystem::SuperOffloadSystem(SuperOffloadOptions opts)
    : opts_(opts)
{
}

std::vector<std::uint32_t>
SuperOffloadSystem::searchVariants(const TrainSetup &) const
{
    if (opts_.placement == WeightPlacement::Auto) {
        return {static_cast<std::uint32_t>(WeightPlacement::Stationary),
                static_cast<std::uint32_t>(WeightPlacement::Flow)};
    }
    return {static_cast<std::uint32_t>(opts_.placement)};
}

double
SuperOffloadSystem::gpuBaseBytes(const TrainSetup &setup,
                                 const SearchCandidate &cand) const
{
    const double n_ranks = setup.cluster.totalSuperchips();
    const double params = setup.model.params();
    const double shard = params / n_ranks;

    double state_bytes;
    if (placementOf(cand) == WeightPlacement::Stationary) {
        // This rank's fp16 parameter shard stays resident; plus the
        // gathered working set when partitioned across ranks.
        state_bytes = 2.0 * shard;
        if (n_ranks > 1)
            state_bytes += 2.0 * 2.0 * setup.model.paramsPerLayer();
    } else {
        // Weight-flow: only streamed bucket buffers live on the GPU.
        state_bytes = 0.0;
    }
    // In/out transfer staging (fp32-wide under SAC).
    state_bytes += kStagingBuckets * 2.0 * kSuperOffloadBucketBytes;
    return model::gpuResidentBytes(state_bytes +
                                   activationBytes(setup, cand));
}

double
SuperOffloadSystem::gpuBytes(const TrainSetup &setup,
                             const SearchCandidate &cand) const
{
    // Feasibility is judged with zero retained buckets (the minimum-
    // memory configuration); the grid search only retains buckets that
    // fit in the slack.
    return gpuBaseBytes(setup, cand);
}

double
SuperOffloadSystem::cpuBytes(const TrainSetup &setup,
                             const SearchCandidate &cand) const
{
    const double n_ranks = setup.cluster.totalSuperchips();
    const double shard = setup.model.params() / n_ranks;
    // Optimizer states (12 B/param) + fp32 gradient shard (4 B/param);
    // weight-flow additionally keeps the streamed fp16 copy host-side.
    double bytes =
        (hw::kOptimStateBytesPerParam + hw::kFp32BytesPerParam) * shard;
    if (placementOf(cand) == WeightPlacement::Flow)
        bytes += hw::kFp16BytesPerParam * shard;
    return bytes;
}

BucketPlan
SuperOffloadSystem::bucketPlan(const TrainSetup &setup) const
{
    const double shard =
        setup.model.params() / setup.cluster.totalSuperchips();
    return planBuckets(shard, kMaxBuckets, opts_.bucket_bytes);
}

void
SuperOffloadSystem::expandCandidate(const TrainSetup &setup,
                                    const SearchCandidate &cand,
                                    std::vector<SearchCandidate> &out) const
{
    const BucketPlan plan = bucketPlan(setup);

    // Retained-bucket grid (§4.3). The analytic bound seeds the grid;
    // memory slack caps it.
    std::uint32_t n_max = 0;
    if (opts_.repartition && plan.count > 0) {
        const double base = gpuBaseBytes(setup, cand);
        const double slack = gpuCapacity(setup) - base;
        const double per_bucket =
            hw::kModelStateBytesPerParam * plan.params_per_bucket;
        if (slack > 0.0 && per_bucket > 0.0) {
            n_max = std::min<std::uint32_t>(
                plan.count,
                static_cast<std::uint32_t>(slack / per_bucket));
        }
    }

    const double bwd_chunk =
        plan.count ? IterBuilder(setup).passTimes(cand, plan.count).bwd
                   : 0.0;
    const std::uint32_t analytic = analyticRetainedBuckets(
        setup.cluster.node.superchip, plan, bwd_chunk,
        opts_.grace_adam ? hw::AdamImpl::GraceAdam : hw::AdamImpl::CpuAdam,
        opts_.sac);

    for (std::uint32_t n : retainedCandidates(analytic, n_max)) {
        SearchCandidate retained = cand;
        retained.retained_buckets = n;
        out.push_back(retained);
    }
}

IterationResult
SuperOffloadSystem::simulate(const TrainSetup &setup,
                             const SearchCandidate &cand) const
{
    IterBuilder builder(setup);
    const std::vector<sim::TaskId> first_tasks =
        buildGraph(builder, setup, cand);
    IterationResult res = builder.finishSteadyState(
        builder.iterationFlops(cand), first_tasks);
    const WeightPlacement placement = placementOf(cand);
    res.notes = std::string(placementName(placement)) + ", retained=" +
                std::to_string(cand.retained_buckets) + "/" +
                std::to_string(bucketPlan(setup).count) + " buckets";
    res.setExtra("placement", static_cast<double>(
                                  static_cast<std::uint32_t>(placement)));
    res.setExtra("retained_buckets",
                 static_cast<double>(cand.retained_buckets));
    return res;
}

std::vector<sim::TaskId>
SuperOffloadSystem::buildGraph(IterBuilder &builder,
                               const TrainSetup &setup,
                               const SearchCandidate &cand) const
{
    const BucketPlan plan = bucketPlan(setup);
    const std::uint32_t retained = cand.retained_buckets;
    SO_ASSERT(retained <= plan.count, "retained ", retained,
              " buckets of ", plan.count);
    const std::uint32_t accum_steps = cand.accum_steps;

    const double n_ranks = setup.cluster.totalSuperchips();
    const bool multi = n_ranks > 1;
    const bool flow = placementOf(cand) == WeightPlacement::Flow;
    const std::uint32_t nbuckets = std::max<std::uint32_t>(plan.count, 1);
    const double bp = plan.params_per_bucket; // params per bucket/rank
    const PassTimes chunk = builder.passTimes(cand, nbuckets);

    const hw::AdamImpl impl = opts_.grace_adam ? hw::AdamImpl::GraceAdam
                                               : hw::AdamImpl::CpuAdam;

    // Per-bucket transfer sizes (per rank). Under SAC the link carries
    // fp32 (4 B/param) through pinned DMA; otherwise fp16 (2 B/param)
    // through unpinned staging (§4.5).
    const double move_bytes = opts_.sac ? 4.0 * bp : 2.0 * bp;
    const bool pinned = opts_.sac;

    // When the bucket count exceeds the in-flight cap, the transfer
    // engine coalesces buckets (the production behaviour): transfers
    // and dispatch then run at the coalesced granularity. With
    // coalescing disabled (the bucket-size ablation), the requested
    // granularity is honored literally — transfers pay the Fig. 7
    // curve at that size and every logical bucket pays its dispatch
    // overhead.
    double dispatch_scale = 1.0;
    double wire_granule = plan.bucket_bytes * (opts_.sac ? 2.0 : 1.0);
    if (!opts_.coalesce_buckets && plan.count > 0) {
        const double logical_buckets =
            std::ceil(2.0 * plan.totalParams() / opts_.bucket_bytes);
        dispatch_scale = std::max(
            1.0, logical_buckets / static_cast<double>(nbuckets));
        wire_granule = opts_.bucket_bytes * (opts_.sac ? 2.0 : 1.0);
    }
    const double move_time =
        builder.chunkedTransferTime(move_bytes, wire_granule, pinned);
    const double flow_fetch_time = builder.chunkedTransferTime(
        2.0 * bp, wire_granule / (opts_.sac ? 2.0 : 1.0),
        /*pinned=*/true);
    const double cpu_bucket_time =
        builder.cpuAdamTime(bp, impl) +
        kCpuBucketOverhead * dispatch_scale;

    // "param_ready[c]" for the iteration being built: the task after
    // which bucket c's updated fp16 params are usable on the GPU.
    std::vector<sim::TaskId> ready_prev(nbuckets, sim::kInvalidTask);
    std::vector<sim::TaskId> iter_first_task(kSteadyStateIterations,
                                             sim::kInvalidTask);

    // Exact counts of the loop below. Per bucket and pass: the compute
    // task, a weight fetch when flowing a CPU bucket, an all-gather when
    // multi-chip. After the last backward: a reduce-scatter when
    // multi-chip, then two tasks per bucket (cast + GPU Adam, or cast +
    // move). Per CPU bucket in the optimizer phase: Adam, a validation
    // under STV, and the return (one cast under flow, else a move and a
    // cast). The fixed tasks: the STE norm and barrier, or STV's global
    // check and rollback.
    {
        const auto b = static_cast<std::size_t>(nbuckets);
        const std::size_t cpu_b = b - retained;
        const std::size_t fetched = flow ? cpu_b : 0;
        const std::size_t gathered = multi ? b : 0;
        const std::size_t stv = opts_.stv ? 1 : 0;
        const std::size_t ste = 1 - stv;
        const std::size_t back = flow ? 1 : 2;
        const std::size_t checked = opts_.stv && cpu_b > 0 ? 1 : 0;
        const std::size_t pass = b + fetched + gathered;
        const std::size_t steps = accum_steps;
        const std::size_t tasks = steps * 2 * pass + gathered + 2 * b +
                                  cpu_b * (1 + stv + back) + 2 * checked +
                                  2 * ste;
        // Each pass task waits on its predecessor plus its fetch and
        // gather; after the first iteration, step 0's forward (and its
        // fetches) also wait on the previous update of their bucket.
        const std::size_t edges_per_iter =
            steps * 2 * pass + gathered + 2 * b +
            cpu_b * (1 + ste + stv + back) + checked * (cpu_b + 1) +
            ste * (cpu_b + b);
        builder.reserve(kSteadyStateIterations * tasks,
                        kSteadyStateIterations * edges_per_iter +
                            (kSteadyStateIterations - 1) * (b + fetched));
    }

    sim::TaskId prev = sim::kInvalidTask;
    for (std::uint32_t it = 0; it < kSteadyStateIterations; ++it) {
        std::vector<sim::TaskId> ready(nbuckets, sim::kInvalidTask);
        std::vector<sim::TaskId> arrivals;
        arrivals.reserve(nbuckets);
        std::vector<sim::TaskId> returns;
        sim::TaskId first_fwd = sim::kInvalidTask;

        for (std::uint32_t step = 0; step < accum_steps; ++step) {
            // ---- Forward: chunk j consumes bucket (B-1-j).
            for (std::uint32_t j = 0; j < nbuckets; ++j) {
                const std::uint32_t bidx = nbuckets - 1 - j;
                std::vector<sim::TaskId> deps;
                if (prev != sim::kInvalidTask)
                    deps.push_back(prev);
                if (step == 0 && ready_prev[bidx] != sim::kInvalidTask)
                    deps.push_back(ready_prev[bidx]);
                if (flow && bidx < nbuckets - retained) {
                    // Stream this bucket's fp16 params from the host;
                    // prefetchable (no GPU dependency).
                    std::vector<sim::TaskId> fetch_deps;
                    if (step == 0 && ready_prev[bidx] != sim::kInvalidTask)
                        fetch_deps.push_back(ready_prev[bidx]);
                    const sim::TaskId fetch = builder.onTransfer(
                        hw::kTierDdr, hw::kTierHbm,
                        "h2d w" + std::to_string(bidx), flow_fetch_time,
                        2.0 * bp, std::move(fetch_deps));
                    deps.push_back(fetch);
                }
                if (multi) {
                    // ZeRO-3 partitioned weights: all-gather overlaps
                    // compute (prefetch on the NIC).
                    deps.push_back(builder.onNic(
                        "ag", builder.coll().allGather(2.0 * bp * n_ranks),
                        {}));
                }
                prev = builder.onGpu("fwd", chunk.fwd, std::move(deps));
                if (first_fwd == sim::kInvalidTask)
                    first_fwd = prev;
            }

            // ---- Backward: bucket c is produced by chunk c.
            const bool last = step + 1 == accum_steps;
            for (std::uint32_t c = 0; c < nbuckets; ++c) {
                std::vector<sim::TaskId> deps{prev};
                if (flow && c < nbuckets - retained) {
                    const sim::TaskId fetch = builder.onTransfer(
                        hw::kTierDdr, hw::kTierHbm,
                        "h2d w'" + std::to_string(c), flow_fetch_time,
                        2.0 * bp, {});
                    deps.push_back(fetch);
                }
                if (multi) {
                    deps.push_back(builder.onNic(
                        "ag'", builder.coll().allGather(2.0 * bp * n_ranks),
                        {}));
                }
                prev = builder.onGpu("bwd", chunk.bwd, std::move(deps));
                if (!last)
                    continue;

                sim::TaskId grads = prev;
                if (multi) {
                    grads = builder.onNic(
                        "rs g" + std::to_string(c),
                        builder.coll().reduceScatter(2.0 * bp * n_ranks),
                        {grads});
                }

                if (c >= nbuckets - retained) {
                    // Repartitioned bucket: GPU-side cast + Adam. Low
                    // priority so remaining backward chunks go first.
                    const sim::TaskId cast = builder.onGpu(
                        "cast g(gpu)", builder.gpuCastTime(bp), {grads},
                        1);
                    ready[c] = builder.onGpu(
                        "adam(gpu) b" + std::to_string(c),
                        builder.gpuAdamTime(bp), {cast}, 1);
                    continue;
                }

                // CPU-bound bucket.
                sim::TaskId arrived;
                if (opts_.sac) {
                    // The swap-out cast is enqueued on-stream right
                    // behind the bucket's last gradient kernel, so it
                    // preempts later backward chunks (priority -1);
                    // otherwise gradients would only reach the CPU
                    // after the whole backward pass.
                    const sim::TaskId cast = builder.onGpu(
                        "cast g(gpu)", builder.gpuCastTime(bp), {grads},
                        -1);
                    arrived = builder.onTransfer(
                        hw::kTierHbm, hw::kTierDdr,
                        "d2h g" + std::to_string(c), move_time,
                        move_bytes, {cast});
                } else {
                    const sim::TaskId moved = builder.onTransfer(
                        hw::kTierHbm, hw::kTierDdr,
                        "d2h g" + std::to_string(c), move_time,
                        move_bytes, {grads});
                    arrived = builder.onCpu(
                        "cast g(cpu)", builder.cpuCastTime(bp), {moved});
                }
                arrivals.push_back(arrived);
                ready[c] = arrived; // Placeholder; replaced below.
            }
        }

        // ---- Optimizer phase for CPU-bound buckets.
        sim::TaskId norm = sim::kInvalidTask;
        if (!opts_.stv) {
            // STE: global gradient norm + NaN/Inf check gates every
            // optimizer step (Fig. 3's grey block).
            norm = builder.onCpu(
                "grad-norm+check",
                setup.cluster.node.superchip.cpu.memTime(4.0 *
                                                         plan.totalParams()),
                arrivals);
        }
        std::vector<sim::TaskId> validations;
        validations.reserve(nbuckets);
        for (std::uint32_t c = 0; c + retained < nbuckets; ++c) {
            std::vector<sim::TaskId> deps{ready[c]};
            if (norm != sim::kInvalidTask)
                deps.push_back(norm);
            const sim::TaskId opt = builder.onCpu(
                "adam b" + std::to_string(c), cpu_bucket_time,
                std::move(deps));
            if (opts_.stv) {
                // Deferred validation on background cores (§4.4).
                validations.push_back(builder.onCpuBg(
                    "validate b" + std::to_string(c),
                    setup.cluster.node.superchip.cpu.memTime(4.0 * bp),
                    {ready[c]}));
            }
            sim::TaskId back;
            if (flow) {
                // Weight-flow: the master stays host-side; refresh the
                // CPU fp16 copy and let the next iteration's stream
                // pick it up.
                back = builder.onCpu("cast p(cpu)",
                                     builder.cpuCastTime(bp), {opt});
            } else if (opts_.sac) {
                const sim::TaskId moved = builder.onTransfer(
                    hw::kTierDdr, hw::kTierHbm,
                    "h2d p" + std::to_string(c), move_time, move_bytes,
                    {opt});
                back = builder.onGpu("cast p(gpu)",
                                     builder.gpuCastTime(bp), {moved}, 1);
            } else {
                const sim::TaskId cast = builder.onCpu(
                    "cast p(cpu)", builder.cpuCastTime(bp), {opt});
                back = builder.onTransfer(
                    hw::kTierDdr, hw::kTierHbm,
                    "h2d p" + std::to_string(c), move_time, move_bytes,
                    {cast});
            }
            ready[c] = back;
        }
        if (opts_.stv && !validations.empty()) {
            // Global check + amortized rollback cost, off the critical
            // path unless the CPU is saturated.
            const sim::TaskId check = builder.onCpuBg(
                "global-check", 1e-5, validations);
            builder.onCpuBg("rollback(amortized)",
                            kExpectedRollbackSeconds, {check});
        }
        if (!opts_.stv) {
            // STE constraint 2 (§3): next forward waits for *all*
            // returned parameters.
            std::vector<sim::TaskId> barrier_deps;
            barrier_deps.reserve(ready.size());
            for (sim::TaskId id : ready) {
                if (id != sim::kInvalidTask)
                    barrier_deps.push_back(id);
            }
            const sim::TaskId barrier =
                builder.onGpu("param-barrier", 0.0, barrier_deps);
            for (auto &id : ready)
                id = barrier;
            prev = barrier;
        }

        ready_prev = ready;
        iter_first_task[it] = first_fwd;
    }
    return iter_first_task;
}

} // namespace so::core
