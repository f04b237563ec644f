#include "stv/pipelined_trainer.h"

#include <cmath>
#include <cstring>

#include "optim/kernels.h"

namespace so::stv {

PipelinedStvTrainer::PipelinedStvTrainer(nn::Model &model,
                                         const TrainerConfig &cfg)
    : StvTrainer(model, cfg), last_grads_(model.paramCount())
{
    worker_ = std::thread([this] { workerLoop(); });
}

PipelinedStvTrainer::~PipelinedStvTrainer()
{
    drain();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    worker_.join();
}

void
PipelinedStvTrainer::workerLoop()
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return job_ready_ || stop_; });
            if (stop_)
                return;
            job_ready_ = false;
        }
        // The §4.4 validation work, off the critical path: NaN/Inf
        // scan and the global gradient norm + clipping decision.
        Verdict verdict;
        verdict.overflowed =
            optim::hasNanOrInf(last_grads_.data(), last_grads_.size());
        if (!verdict.overflowed) {
            verdict.grad_norm = std::sqrt(optim::l2NormSquared(
                last_grads_.data(), last_grads_.size()));
            verdict.clip_scale =
                optim::clipScale(verdict.grad_norm, cfg_.clip_norm);
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            verdict_ = verdict;
            verdict_ready_ = true;
        }
        cv_.notify_all();
    }
}

void
PipelinedStvTrainer::submitValidation()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ready_ = true;
        verdict_ready_ = false;
    }
    cv_.notify_all();
    speculation_in_flight_ = true;
}

std::optional<PipelinedStvTrainer::Verdict>
PipelinedStvTrainer::awaitVerdict()
{
    if (!speculation_in_flight_)
        return std::nullopt;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return verdict_ready_; });
    verdict_ready_ = false;
    speculation_in_flight_ = false;
    return verdict_;
}

void
PipelinedStvTrainer::applyVerdict(const Verdict &verdict, StepStats &stats)
{
    stats.overflowed = verdict.overflowed;
    stats.grad_norm = verdict.grad_norm;
    if (verdict.overflowed) {
        // Rollback scenario 1: revert and skip the iteration.
        rollbackStep(last_grads_.data());
        stats.rolled_back = true;
        updateLossScale(true);
        return;
    }
    if (verdict.clip_scale < 1.0) {
        // Rollback scenario 2: revert and re-execute with clipped
        // gradients (the re-executed update is final: its inputs were
        // just validated).
        rollbackStep(last_grads_.data());
        stats.clipped = true;
        stats.rolled_back = true;
        optim::scaleInPlace(last_grads_.data(), last_grads_.size(),
                            static_cast<float>(verdict.clip_scale));
        speculativeStep(last_grads_.data());
    }
    ++steps_taken_;
    updateLossScale(false);
}

StepStats
PipelinedStvTrainer::step(const std::uint32_t *inputs,
                          const std::uint32_t *targets, std::size_t count)
{
    StepStats stats;

    // Overlapped forward/backward: runs on possibly-speculative
    // weights (and the possibly-stale loss scale) while the previous
    // validation is still in flight.
    const float scale_used = lossScale();
    float loss = computeGradients(inputs, targets, count);

    // Previous verdict arrives; settle the weights and the scale.
    if (const auto verdict = awaitVerdict()) {
        applyVerdict(*verdict, stats);
        if (stats.rolled_back || lossScale() != scale_used) {
            // The gradients above were computed against weights that
            // just changed under us (rollback), or with a loss scale
            // the verdict just revised (whose fp16 rounding differs):
            // recompute on the settled state to stay exact.
            loss = computeGradients(inputs, targets, count);
            ++recomputes_;
        }
    }
    stats.loss = loss;

    // Speculate this step's update and hand validation to the worker.
    unscaleGrads();
    applyLrSchedule();
    std::memcpy(last_grads_.data(), model_.grads(),
                last_grads_.size() * sizeof(float));
    speculativeStep(last_grads_.data());
    submitValidation();
    return stats;
}

void
PipelinedStvTrainer::drain()
{
    if (const auto verdict = awaitVerdict()) {
        StepStats stats;
        applyVerdict(*verdict, stats);
    }
}

} // namespace so::stv
