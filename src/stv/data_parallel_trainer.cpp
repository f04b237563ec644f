#include "stv/data_parallel_trainer.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "optim/kernels.h"

namespace so::stv {

DataParallelTrainer::DataParallelTrainer(const nn::MlpLmConfig &model_cfg,
                                         std::uint32_t ranks,
                                         const TrainerConfig &cfg,
                                         std::uint64_t seed)
    : DataParallelTrainer(
          [&model_cfg, seed] {
              return std::make_unique<nn::MlpLm>(model_cfg, seed);
          },
          ranks, cfg)
{
}

DataParallelTrainer::DataParallelTrainer(const ReplicaFactory &factory,
                                         std::uint32_t ranks,
                                         const TrainerConfig &cfg)
    : TrainerState(cfg), ranks_(ranks)
{
    SO_ASSERT(ranks >= 1, "need at least one rank");
    SO_ASSERT(cfg.buckets >= ranks,
              "need at least one optimizer shard per rank");
    for (std::uint32_t r = 0; r < ranks_; ++r) {
        // Identical initialization on every rank, exactly like a
        // broadcast of rank 0's weights at startup.
        replicas_.push_back(factory());
        SO_ASSERT(replicas_.back() != nullptr,
                  "replica factory returned null");
        SO_ASSERT(replicas_.back()->paramCount() ==
                      replicas_[0]->paramCount(),
                  "replica factory produced mismatched models");
        optimizers_.push_back(
            std::make_unique<optim::Adam>(cfg.adam, cfg.kernel));
    }
    const std::size_t n = replicas_[0]->paramCount();
    reduced_grads_.assign(n, 0.0f);
    adam_slot_.assign(ranks_, {});
    for (std::uint32_t r = 0; r < ranks_; ++r)
        adam_slot_[r].assign(cfg_.buckets, 0);
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(n, cfg_.buckets, b, begin, end);
        // Only the owner holds optimizer state for this shard: the
        // ZeRO-2 memory saving, for real.
        const std::uint32_t owner = ownerOf(b);
        adam_slot_[owner][b] =
            optimizers_[owner]->addParameter(end - begin);
    }
}

const nn::Model &
DataParallelTrainer::replica(std::uint32_t r) const
{
    SO_ASSERT(r < ranks_, "rank out of range");
    return *replicas_[r];
}

bool
DataParallelTrainer::replicasInSync() const
{
    const nn::Model &first = *replicas_[0];
    for (std::uint32_t r = 1; r < ranks_; ++r) {
        for (std::size_t i = 0; i < first.paramCount(); ++i) {
            if (replicas_[r]->params()[i] != first.params()[i])
                return false;
        }
    }
    return true;
}

StepStats
DataParallelTrainer::step(const std::uint32_t *inputs,
                          const std::uint32_t *targets,
                          std::size_t count_per_rank)
{
    StepStats stats;
    const std::size_t n = replicas_[0]->paramCount();

    // Per-rank forward/backward over each rank's micro-batch.
    double loss_sum = 0.0;
    for (std::uint32_t r = 0; r < ranks_; ++r) {
        loss_sum += replicas_[r]->trainBatch(
            inputs + r * count_per_rank, targets + r * count_per_rank,
            count_per_rank, loss_scale_);
        if (cfg_.fp16_grads)
            replicas_[r]->roundGradsThroughFp16();
    }
    stats.loss = static_cast<float>(loss_sum / ranks_);

    // All-reduce (average) — deterministic rank-order summation.
    const float inv_ranks = 1.0f / static_cast<float>(ranks_);
    std::memcpy(reduced_grads_.data(), replicas_[0]->grads(),
                n * sizeof(float));
    for (std::uint32_t r = 1; r < ranks_; ++r)
        optim::axpy(reduced_grads_.data(), replicas_[r]->grads(), n, 1.0f);
    optim::scaleInPlace(reduced_grads_.data(), n, inv_ranks);

    if (optim::hasNanOrInf(reduced_grads_.data(), n)) {
        stats.overflowed = true;
        updateLossScale(true);
        return stats;
    }

    // Unscale, global norm, clip.
    optim::scaleInPlace(reduced_grads_.data(), n, 1.0f / loss_scale_);
    stats.grad_norm =
        std::sqrt(optim::l2NormSquared(reduced_grads_.data(), n));
    const double clip = optim::clipScale(stats.grad_norm, cfg_.clip_norm);
    if (clip < 1.0) {
        stats.clipped = true;
        optim::scaleInPlace(reduced_grads_.data(), n,
                            static_cast<float>(clip));
    }

    // ZeRO-2: each shard's owner updates it, then the updated region
    // is broadcast ("all-gathered") to every other replica.
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(n, cfg_.buckets, b, begin, end);
        const std::uint32_t owner = ownerOf(b);
        optim::Adam &adam = *optimizers_[owner];
        if (cfg_.lr_schedule) {
            adam.setLearningRate(
                cfg_.lr_schedule->at(steps_taken_ + 1));
        }
        adam.step(adam_slot_[owner][b],
                  replicas_[owner]->params() + begin,
                  reduced_grads_.data() + begin);
        for (std::uint32_t r = 0; r < ranks_; ++r) {
            if (r == owner)
                continue;
            std::memcpy(replicas_[r]->params() + begin,
                        replicas_[owner]->params() + begin,
                        (end - begin) * sizeof(float));
        }
    }

    ++steps_taken_;
    updateLossScale(false);
    return stats;
}

} // namespace so::stv
