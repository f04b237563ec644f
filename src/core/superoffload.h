/**
 * @file
 * The SuperOffload training system (§4): a Superchip-centric offloading
 * schedule that uses the Hopper GPU, Grace CPU, and NVLink-C2C
 * simultaneously.
 *
 * Per iteration (weight-stationary mode, the common case):
 *  - the backward pass produces gradients in 64 MB buckets (§4.3);
 *  - each CPU-bound bucket is cast to fp32 *on the GPU* and DMA'd over
 *    the link in fp32 (SAC, §4.5), avoiding the unpinned-staging
 *    penalty of the classic fp16 path;
 *  - GraceAdam (§4.6) starts on each bucket as soon as it lands —
 *    speculatively, without waiting for the global gradient norm
 *    (STV, §4.4); validation runs on background cores concurrently
 *    with the next forward pass;
 *  - the optimizer states of the last n buckets produced by backward
 *    (= the first layers needed by the next forward) are repartitioned
 *    onto the GPU (§4.3, eqs. 4-5), with n grid-searched by simulation:
 *    the expansion hook turns each screened candidate into one
 *    candidate per count of the grid, so every count is its own sweep
 *    unit and simulate() runs exactly one;
 *  - updated parameters return as fp32 and are cast to fp16 on the GPU.
 *
 * Weight-flow mode additionally streams fp16 weights from Grace DRAM
 * per bucket, trading link traffic for GPU memory — chosen adaptively
 * (§4.2) when it is feasible and faster (huge models, long sequences).
 *
 * Multi-Superchip: ZeRO-3 partitioning before offloading (§4.7) —
 * per-layer parameter all-gathers overlap compute, gradients
 * reduce-scatter per bucket, and each Grace CPU updates only its shard.
 */
#ifndef SO_CORE_SUPEROFFLOAD_H
#define SO_CORE_SUPEROFFLOAD_H

#include <vector>

#include "core/bucketization.h"
#include "core/policy.h"
#include "core/sac.h"
#include "runtime/system.h"
#include "sim/graph.h"

namespace so::runtime {
class IterBuilder;
} // namespace so::runtime

namespace so::core {

/** Feature toggles for the Table-2 ablation study. */
struct SuperOffloadOptions
{
    /** §4.6 GraceAdam (off = DeepSpeed CPU-Adam timing). */
    bool grace_adam = true;
    /** §4.5 Superchip-aware casting (off = Cast_cpu<->Move_fp16). */
    bool sac = true;
    /** §4.4 speculation-then-validation (off = STE synchronization). */
    bool stv = true;
    /** §4.3 bucket repartitioning (off = every bucket on the CPU). */
    bool repartition = true;
    /** §4.2 placement policy (Auto evaluates both). */
    WeightPlacement placement = WeightPlacement::Auto;
    /**
     * Target transfer bucket size in bytes of fp16 payload. 64 MB is
     * §4.3's choice (the C2C saturation point); exposed for the
     * bucket-size ablation.
     */
    double bucket_bytes = kSuperOffloadBucketBytes;
    /**
     * Whether the transfer engine may coalesce buckets when their
     * count would exceed the in-flight cap (kMaxTransferBuckets) — the
     * production behaviour, which bounds per-bucket dispatch overhead
     * for very large shards. The bucket-size ablation disables this to
     * expose the raw cost of the requested granularity.
     */
    bool coalesce_buckets = true;
};

/** SuperOffload (optionally with ZeRO-3 across multiple Superchips). */
class SuperOffloadSystem : public runtime::TrainingSystem
{
  public:
    /**
     * Cap on the number of transfer buckets per rank. When the cap
     * binds (very large shards) buckets grow beyond 64 MB, which is
     * harmless: the C2C link is already saturated at 64 MB (Fig. 7).
     */
    static constexpr std::uint32_t kMaxTransferBuckets = 128;

    /**
     * Expected rollback overhead per iteration in seconds, amortized:
     * §5.7 measures 0.12% of iterations triggering a ~2 s rollback.
     */
    static constexpr double kExpectedRollbackSeconds = 0.0024;

    explicit SuperOffloadSystem(SuperOffloadOptions opts = {});

    std::string name() const override { return "SuperOffload"; }

    /**
     * Emit @p cand's kSteadyStateIterations back-to-back iterations,
     * with cand.retained_buckets buckets repartitioned onto the GPU,
     * into @p builder, after reserving exactly the tasks and edges the
     * emission adds. Returns each iteration's first task. simulate()
     * schedules what this builds; tests read the graph's pre-sizing.
     */
    std::vector<sim::TaskId> buildGraph(runtime::IterBuilder &builder,
                                        const runtime::TrainSetup &setup,
                                        const runtime::SearchCandidate &cand)
        const;

  protected:
    double gpuBytes(const runtime::TrainSetup &setup,
                    const runtime::SearchCandidate &cand) const override;
    double cpuBytes(const runtime::TrainSetup &setup,
                    const runtime::SearchCandidate &cand) const override;
    runtime::IterationResult
    simulate(const runtime::TrainSetup &setup,
             const runtime::SearchCandidate &cand) const override;

    /**
     * The §4.2 placement policy as the search dimension: Auto
     * evaluates Stationary then Flow (so Stationary wins throughput
     * ties and carries the infeasible diagnosis); a fixed placement
     * evaluates only itself. The variant index is the WeightPlacement
     * enum value. The chosen placement and retained-bucket count are
     * reported as the "placement" / "retained_buckets" extras.
     */
    std::vector<std::uint32_t>
    searchVariants(const runtime::TrainSetup &setup) const override;

    /**
     * The §4.3 grid search as enumeration: one candidate per count of
     * retainedCandidates(analytic, n_max), in ascending order (fewer
     * retained buckets win ties), where eqs. 4-5 give the analytic seed
     * and the GPU slack above gpuBytes gives n_max (0 with
     * repartitioning off).
     */
    void expandCandidate(const runtime::TrainSetup &setup,
                         const runtime::SearchCandidate &cand,
                         std::vector<runtime::SearchCandidate> &out)
        const override;

  private:
    /** The candidate's placement (never Auto). */
    static WeightPlacement placementOf(const runtime::SearchCandidate &cand)
    {
        return cand.variant == static_cast<std::uint32_t>(
                                   WeightPlacement::Flow)
                   ? WeightPlacement::Flow
                   : WeightPlacement::Stationary;
    }

    /** GPU bytes excluding retained-bucket optimizer states. */
    double gpuBaseBytes(const runtime::TrainSetup &setup,
                        const runtime::SearchCandidate &cand) const;

    /** The bucket decomposition of one rank's parameter shard. */
    BucketPlan bucketPlan(const runtime::TrainSetup &setup) const;

    SuperOffloadOptions opts_;
};

} // namespace so::core

#endif // SO_CORE_SUPEROFFLOAD_H
