#include "stv/trainer.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "optim/kernels.h"

namespace so::stv {

void
bucketRange(std::size_t params, std::uint32_t buckets, std::uint32_t b,
            std::size_t &begin, std::size_t &end)
{
    SO_ASSERT(b < buckets, "bucket index out of range");
    const std::size_t base = params / buckets;
    const std::size_t extra = params % buckets;
    begin = b * base + std::min<std::size_t>(b, extra);
    end = begin + base + (b < extra ? 1 : 0);
}

void
TrainerState::updateLossScale(bool overflowed)
{
    if (overflowed) {
        loss_scale_ = std::max(1.0f, loss_scale_ * 0.5f);
        good_steps_ = 0;
        return;
    }
    if (++good_steps_ >= cfg_.scale_growth_interval) {
        // PyTorch-style dynamic scaling: keep probing larger scales
        // (bounded only far away, at 2^24). Once training is stable
        // this produces the classic pattern of one overflow-rollback
        // per growth interval — the paper's "rollbacks rarely happen"
        // steady state.
        loss_scale_ = std::min(16777216.0f, loss_scale_ * 2.0f);
        good_steps_ = 0;
    }
}

TrainerBase::TrainerBase(nn::Model &model, const TrainerConfig &cfg)
    : TrainerState(cfg), model_(model), adam_(cfg.adam, cfg.kernel)
{
    SO_ASSERT(cfg.buckets >= 1, "need at least one bucket");
    SO_ASSERT(cfg.buckets <= model.paramCount(),
              "more buckets than parameters");
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(b, begin, end);
        adam_.addParameter(end - begin);
    }
}

float
TrainerBase::computeGradients(const std::uint32_t *inputs,
                              const std::uint32_t *targets,
                              std::size_t count)
{
    const float loss =
        model_.trainBatch(inputs, targets, count, loss_scale_);
    if (cfg_.fp16_grads)
        model_.roundGradsThroughFp16();
    return loss;
}

bool
TrainerBase::gradsOverflowed() const
{
    return optim::hasNanOrInf(model_.grads(), model_.paramCount());
}

void
TrainerBase::unscaleGrads()
{
    optim::scaleInPlace(model_.grads(), model_.paramCount(),
                        1.0f / loss_scale_);
}

double
TrainerBase::gradNorm() const
{
    return std::sqrt(
        optim::l2NormSquared(model_.grads(), model_.paramCount()));
}

void
TrainerBase::applyLrSchedule()
{
    if (cfg_.lr_schedule)
        adam_.setLearningRate(cfg_.lr_schedule->at(steps_taken_ + 1));
}

// ------------------------------------------------------------- SyncTrainer

StepStats
SyncTrainer::step(const std::uint32_t *inputs, const std::uint32_t *targets,
                  std::size_t count)
{
    StepStats stats;
    stats.loss = computeGradients(inputs, targets, count);

    // Synchronization point first: NaN/Inf scan over everything.
    if (gradsOverflowed()) {
        stats.overflowed = true;
        updateLossScale(true);
        return stats;
    }

    // Global norm + clipping, then the optimizer.
    unscaleGrads();
    stats.grad_norm = gradNorm();
    const double scale = optim::clipScale(stats.grad_norm, cfg_.clip_norm);
    if (scale < 1.0) {
        stats.clipped = true;
        optim::scaleInPlace(model_.grads(), model_.paramCount(),
                            static_cast<float>(scale));
    }
    applyLrSchedule();
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(b, begin, end);
        adam_.step(b, model_.params() + begin, model_.grads() + begin);
    }
    ++steps_taken_;
    updateLossScale(false);
    return stats;
}

// -------------------------------------------------------------- StvTrainer

StvTrainer::StvTrainer(nn::Model &model, const TrainerConfig &cfg)
    : TrainerBase(model, cfg)
{
    stepped_.assign(cfg_.buckets, false);
    if (cfg_.rollback == RollbackMode::Snapshot) {
        snap_params_.resize(model_.paramCount());
        snap_m_.resize(cfg_.buckets);
        snap_v_.resize(cfg_.buckets);
        for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
            std::size_t begin, end;
            bucketRange(b, begin, end);
            snap_m_[b].resize(end - begin);
            snap_v_[b].resize(end - begin);
        }
    }
}

void
StvTrainer::speculativeStep(const float *grads)
{
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(b, begin, end);
        // Bucket-local guard (no global synchronization): a bucket
        // with non-finite gradients is left unstepped; the deferred
        // global validation will then skip the whole iteration.
        if (optim::hasUnsafeValues(grads + begin, end - begin,
                                   kSpeculationLimit)) {
            stepped_[b] = false;
            continue;
        }
        if (cfg_.rollback == RollbackMode::Snapshot) {
            std::memcpy(snap_params_.data() + begin,
                        model_.params() + begin,
                        (end - begin) * sizeof(float));
            std::memcpy(snap_m_[b].data(), adam_.momentum(b).data(),
                        (end - begin) * sizeof(float));
            std::memcpy(snap_v_[b].data(), adam_.variance(b).data(),
                        (end - begin) * sizeof(float));
        }
        adam_.step(b, model_.params() + begin, grads + begin);
        stepped_[b] = true;
    }
}

void
StvTrainer::rollbackStep(const float *grads)
{
    ++rollbacks_;
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        if (!stepped_[b])
            continue;
        std::size_t begin, end;
        bucketRange(b, begin, end);
        if (cfg_.rollback == RollbackMode::Snapshot) {
            std::memcpy(model_.params() + begin,
                        snap_params_.data() + begin,
                        (end - begin) * sizeof(float));
            std::memcpy(adam_.momentumData(b), snap_m_[b].data(),
                        (end - begin) * sizeof(float));
            std::memcpy(adam_.varianceData(b), snap_v_[b].data(),
                        (end - begin) * sizeof(float));
            adam_.rewindStep(b);
        } else {
            adam_.rollback(b, model_.params() + begin, grads + begin);
        }
        stepped_[b] = false;
    }
}

StepStats
StvTrainer::step(const std::uint32_t *inputs, const std::uint32_t *targets,
                 std::size_t count)
{
    StepStats stats;
    stats.loss = computeGradients(inputs, targets, count);

    // Speculate: unscale and apply every bucket immediately — no global
    // synchronization before the optimizer (Fig. 8). NaN/Inf values
    // survive unscaling (Inf * finite = Inf), so validation still sees
    // them afterwards.
    unscaleGrads();
    applyLrSchedule();
    speculativeStep(model_.grads());

    // Deferred validation (in the real system this runs on background
    // Grace cores concurrent with the next forward pass).
    const bool overflow = gradsOverflowed();
    if (overflow) {
        // Rollback scenario 1 (§4.4): NaN/Inf — revert and skip.
        rollbackStep(model_.grads());
        stats.overflowed = true;
        stats.rolled_back = true;
        updateLossScale(true);
        return stats;
    }

    stats.grad_norm = gradNorm();
    const double scale = optim::clipScale(stats.grad_norm, cfg_.clip_norm);
    if (scale < 1.0) {
        // Rollback scenario 2 (§4.4): clipping violation — revert the
        // update and re-execute it with clipped gradients.
        rollbackStep(model_.grads());
        stats.clipped = true;
        stats.rolled_back = true;
        optim::scaleInPlace(model_.grads(), model_.paramCount(),
                            static_cast<float>(scale));
        speculativeStep(model_.grads());
    }
    ++steps_taken_;
    updateLossScale(false);
    return stats;
}

} // namespace so::stv
