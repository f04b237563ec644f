/**
 * @file
 * Fine-grained bucketization repartitioning (§4.3).
 *
 * Gradients and parameters move between Hopper and Grace in buckets of
 * 64 MB — the size at which the C2C bandwidth curve saturates (Fig. 7).
 * Because the Hopper/Grace FLOPS ratio (~330x) makes the CPU the
 * straggler, the optimizer states of the *last few* buckets produced by
 * the backward pass are repartitioned onto the GPU, subject to the
 * overlap inequality of eqs. (4)-(5); the exact retained count is then
 * grid-searched by simulation. SuperOffloadSystem's expansion hook
 * enumerates the grid, one search candidate per count, so the sweep
 * engine simulates the counts as independent units.
 */
#ifndef SO_CORE_BUCKETIZATION_H
#define SO_CORE_BUCKETIZATION_H

#include <cstdint>
#include <vector>

#include "hw/topology.h"

namespace so::core {

/** The bucket decomposition of one rank's offloaded parameter shard. */
struct BucketPlan
{
    /** Number of transfer buckets. */
    std::uint32_t count = 0;
    /** Parameters per bucket (uniform; last bucket may be smaller). */
    double params_per_bucket = 0.0;
    /** Parameters in the final (possibly partial) bucket. */
    double last_bucket_params = 0.0;
    /** Bucket size in bytes of fp16 payload (= 64 MB except the tail). */
    double bucket_bytes = 0.0;

    /** Parameters covered by buckets [0, k). */
    double paramsInBuckets(std::uint32_t k) const;

    /** Total parameters across all buckets. */
    double totalParams() const;
};

/** SuperOffload's transfer bucket size: 64 MB (§4.3, from Fig. 7). */
inline constexpr double kSuperOffloadBucketBytes = 64.0 * 1024.0 * 1024.0;

/**
 * Split @p shard_params parameters into fp16 transfer buckets.
 * @param max_buckets safety cap on the bucket count (task-graph size);
 * when the cap binds, buckets grow beyond the target (bandwidth is
 * already saturated there, so timing is unaffected).
 * @param bucket_bytes target fp16 payload per bucket; 64 MB by default
 * (§4.3) — exposed so the bucket-size ablation can sweep it.
 */
BucketPlan planBuckets(double shard_params,
                       std::uint32_t max_buckets = 256,
                       double bucket_bytes = kSuperOffloadBucketBytes);

/**
 * Analytic lower bound for the GPU-retained bucket count n from the
 * overlap inequality (eqs. 4-5): the smallest n such that the last
 * CPU bucket's swap-out + optimizer step + swap-in fits inside the
 * backward + GPU-optimizer time of the n retained buckets.
 *
 * @param chip        hardware rates.
 * @param plan        the bucket decomposition.
 * @param bwd_time_per_bucket  backward-pass time attributable to one
 *                    bucket's worth of parameters.
 * @param impl        CPU Adam implementation in use.
 * @param fp32_moves  true when SAC moves fp32 across the link (§4.5).
 * @return the smallest satisfying n, clamped to [0, plan.count].
 */
std::uint32_t analyticRetainedBuckets(const hw::SuperchipSpec &chip,
                                      const BucketPlan &plan,
                                      double bwd_time_per_bucket,
                                      hw::AdamImpl impl, bool fp32_moves);

/**
 * Grid of candidate retained-bucket counts around the analytic bound,
 * for the simulation-based grid search (§4.3: "SuperOffload uses grid
 * search to identify the optimal number"). Always includes 0, the
 * analytic bound, and @p n_max; deduplicated and sorted.
 */
std::vector<std::uint32_t> retainedCandidates(std::uint32_t analytic,
                                              std::uint32_t n_max);

} // namespace so::core

#endif // SO_CORE_BUCKETIZATION_H
