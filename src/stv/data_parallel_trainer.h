/**
 * @file
 * Numeric ZeRO-style data parallelism (§2.2, §4.7's substrate): K model
 * replicas train in-process, gradients all-reduce (average) across
 * ranks, and — ZeRO-2 — each rank owns and updates only its shard of
 * the optimizer state, after which updated parameters are
 * "all-gathered" back to every replica.
 *
 * This grounds the partitioned-optimizer semantics the simulation's
 * ZeRO systems assume in real arithmetic: the defining property —
 * K-way DP with per-rank micro-batches is numerically equivalent to
 * one rank training on the concatenated batch — is testable and
 * tested.
 */
#ifndef SO_STV_DATA_PARALLEL_TRAINER_H
#define SO_STV_DATA_PARALLEL_TRAINER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/mlp_lm.h"
#include "optim/adam.h"
#include "stv/trainer.h"

namespace so::stv {

/**
 * In-process K-rank ZeRO-2 data-parallel trainer. Optimizer shards are
 * trainer.h's buckets, and the loss scale follows trainer.h's rule.
 */
class DataParallelTrainer : public TrainerState
{
  public:
    /** Builds one identically-initialized model replica per call. */
    using ReplicaFactory = std::function<std::unique_ptr<nn::Model>()>;

    /**
     * @param ranks    data-parallel degree (each rank gets its own
     *                 model replica, identically initialized).
     * @param cfg      shared trainer configuration; cfg.buckets is the
     *                 optimizer-shard granularity and must be >= ranks.
     * @param seed     replica initialization seed.
     */
    DataParallelTrainer(const nn::MlpLmConfig &model_cfg,
                        std::uint32_t ranks, const TrainerConfig &cfg,
                        std::uint64_t seed);

    /** Generic form: any Model via an identical-replica factory. */
    DataParallelTrainer(const ReplicaFactory &factory,
                        std::uint32_t ranks, const TrainerConfig &cfg);

    /**
     * One training step over @p count (input, target) pairs *per
     * rank*: rank r consumes pairs [r*count, (r+1)*count). Equivalent
     * to a single-rank step over all ranks*count pairs.
     */
    StepStats step(const std::uint32_t *inputs,
                   const std::uint32_t *targets,
                   std::size_t count_per_rank);

    /** Rank @p r's replica (all replicas stay bitwise identical). */
    const nn::Model &replica(std::uint32_t r) const;

    /** True when every replica holds identical parameters. */
    bool replicasInSync() const;

  private:
    /** Which rank owns optimizer shard/bucket @p b (round-robin). */
    std::uint32_t ownerOf(std::uint32_t b) const { return b % ranks_; }

    std::uint32_t ranks_;
    std::vector<std::unique_ptr<nn::Model>> replicas_;
    /** One optimizer per rank, holding only that rank's shards. */
    std::vector<std::unique_ptr<optim::Adam>> optimizers_;
    /** Per rank: bucket index -> slot id in that rank's optimizer. */
    std::vector<std::vector<std::size_t>> adam_slot_;
    std::vector<float> reduced_grads_;
};

} // namespace so::stv

#endif // SO_STV_DATA_PARALLEL_TRAINER_H
