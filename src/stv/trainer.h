/**
 * @file
 * Numeric speculation-then-validation (STV) training loop (§4.4).
 *
 * STV's claim is that it is an *exact* optimization: the CPU applies
 * each gradient bucket's Adam step speculatively — before the global
 * gradient norm and NaN/Inf checks complete — and a deferred validation
 * pass triggers an in-place rollback in the rare case the speculation
 * was wrong (overflow -> skip the iteration; clipping violation ->
 * revert and re-execute with clipped gradients). This module implements
 * both schedules over a real model (nn::MlpLm) with a real
 * mixed-precision pipeline (loss scaling, fp16 gradient rounding,
 * global-norm clipping), so the exactness claim is *testable*: the STV
 * trajectory must match the synchronous (STE) trajectory step for step.
 *
 * The rules every trainer in this module shares are stated once here:
 * the bucket layout (bucketRange), the dynamic loss scale
 * (TrainerState::updateLossScale) and the speculate / rollback /
 * snapshot machinery (StvTrainer, which PipelinedStvTrainer extends).
 */
#ifndef SO_STV_TRAINER_H
#define SO_STV_TRAINER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/model.h"
#include "optim/adam.h"
#include "optim/lr_schedule.h"

namespace so::stv {

/** How a mis-speculated update is reverted. */
enum class RollbackMode
{
    /**
     * Invert the Adam update algebraically in place (§4.4's in-place
     * rollback): no shadow copies. The reconstruction is exact to
     * float rounding in absolute terms, but Adam's sqrt(v) denominator
     * amplifies the tiny residual left in near-zero variance entries,
     * so parameters whose gradients are orders of magnitude smaller
     * than their peers can drift by a small fraction of one update
     * relative to the never-rolled-back trajectory. The drift is
     * bounded (it does not compound) and all control decisions —
     * overflow skips, clipping, loss-scale evolution — remain
     * identical; use Snapshot where bitwise equality is required.
     */
    Algebraic,
    /** Restore saved copies of (param, m, v): bit-exact, 3x memory. */
    Snapshot,
};

/** Mixed-precision training-loop configuration. */
struct TrainerConfig
{
    optim::AdamConfig adam;
    /** Initial loss scale (dynamic scaling halves it on overflow). */
    float loss_scale = 65536.0f;
    /** Grow the scale 2x after this many overflow-free steps. */
    std::uint32_t scale_growth_interval = 200;
    /** Global gradient-norm clipping threshold. */
    double clip_norm = 1.0;
    /** Round gradients through binary16 (the overflow source). */
    bool fp16_grads = true;
    /** Number of contiguous parameter buckets. */
    std::uint32_t buckets = 8;
    optim::AdamKernel kernel = optim::AdamKernel::Grace;
    RollbackMode rollback = RollbackMode::Algebraic;
    /** Optional learning-rate schedule; overrides adam.lr when set. */
    std::optional<optim::LrSchedule> lr_schedule;
};

/** Outcome of one training step. */
struct StepStats
{
    float loss = 0.0f;
    /** Unscaled global gradient norm (0 when overflowed). */
    double grad_norm = 0.0;
    /** Iteration skipped due to NaN/Inf gradients. */
    bool overflowed = false;
    /** Gradient clipping fired. */
    bool clipped = false;
    /** STV only: a speculative update was reverted this step. */
    bool rolled_back = false;
};

/**
 * [begin, end) element range of bucket @p b when @p params parameters
 * split into @p buckets contiguous buckets: the first
 * params % buckets buckets hold one element more than the rest. Every
 * trainer, and so the checkpoint format, uses this layout.
 */
void bucketRange(std::size_t params, std::uint32_t buckets, std::uint32_t b,
                 std::size_t &begin, std::size_t &end);

/**
 * What every trainer keeps besides its model and optimizer: the
 * configuration, the step count and the dynamic loss scale.
 */
class TrainerState
{
  public:
    float lossScale() const { return loss_scale_; }
    std::int64_t stepsTaken() const { return steps_taken_; }

  protected:
    explicit TrainerState(const TrainerConfig &cfg)
        : cfg_(cfg), loss_scale_(cfg.loss_scale)
    {
    }

    /**
     * The dynamic loss-scale rule, applied after every step: an
     * overflowed step halves the scale (floor 1) and restarts the
     * good-step count; scale_growth_interval good steps in a row
     * double it (cap 2^24).
     */
    void updateLossScale(bool overflowed);

    TrainerConfig cfg_;
    float loss_scale_;
    std::uint32_t good_steps_ = 0;
    std::int64_t steps_taken_ = 0;
};

/**
 * Shared scaffolding of the STE/STV schedules: one model + bucketed
 * Adam state on top of TrainerState. Subclasses implement the two §4.4
 * schedules.
 */
class TrainerBase : public TrainerState
{
  public:
    TrainerBase(nn::Model &model, const TrainerConfig &cfg);
    virtual ~TrainerBase() = default;

    /** Run one training step over (inputs, targets) pairs. */
    virtual StepStats step(const std::uint32_t *inputs,
                           const std::uint32_t *targets,
                           std::size_t count) = 0;

    /**
     * Serialize the complete training state — parameters, optimizer
     * moments and step counts, loss-scale machinery — to @p path.
     * Resuming from the file reproduces the uncheckpointed run bit for
     * bit (given the same data stream). @return false on I/O failure.
     */
    bool saveCheckpoint(const std::string &path) const;

    /**
     * Restore state saved by saveCheckpoint. @return false on I/O
     * failure or when the file does not match this trainer's model
     * size / bucket layout.
     */
    bool loadCheckpoint(const std::string &path);

  protected:
    /** [begin, end) element range of bucket @p b of this model. */
    void
    bucketRange(std::uint32_t b, std::size_t &begin, std::size_t &end) const
    {
        stv::bucketRange(model_.paramCount(), cfg_.buckets, b, begin, end);
    }

    /** Forward/backward with loss scaling + optional fp16 rounding. */
    float computeGradients(const std::uint32_t *inputs,
                           const std::uint32_t *targets,
                           std::size_t count);

    /** True if any gradient is NaN/Inf (checked on scaled grads). */
    bool gradsOverflowed() const;

    /** Unscale gradients by 1/loss_scale in place. */
    void unscaleGrads();

    /** Global L2 norm of the (unscaled) gradients. */
    double gradNorm() const;

    /** Set the optimizer's rate for the upcoming step (schedule hook). */
    void applyLrSchedule();

    nn::Model &model_;
    optim::Adam adam_;
};

/**
 * Synchronize-then-execute reference (Fig. 3): validate first — NaN/Inf
 * scan, global norm, clipping — then apply the optimizer.
 */
class SyncTrainer : public TrainerBase
{
  public:
    using TrainerBase::TrainerBase;

    StepStats step(const std::uint32_t *inputs,
                   const std::uint32_t *targets,
                   std::size_t count) override;
};

/**
 * Speculation-then-validation (Fig. 8): apply each bucket's update
 * immediately, validate afterwards, roll back in place when wrong.
 * Produces the same trajectory as SyncTrainer (bit-exact in Snapshot
 * mode, float-rounding-exact in Algebraic mode).
 */
class StvTrainer : public TrainerBase
{
  public:
    StvTrainer(nn::Model &model, const TrainerConfig &cfg);

    StepStats step(const std::uint32_t *inputs,
                   const std::uint32_t *targets,
                   std::size_t count) override;

    /** Total rollbacks since construction (Fig. 14's red dots). */
    std::uint64_t rollbackCount() const { return rollbacks_; }

    /**
     * Magnitude limit of the bucket-local speculation guard: gradients
     * whose square overflows float cannot be stepped speculatively
     * because the algebraic inverse would not exist. fp16-rounded
     * gradients never exceed 65504, so the guard only ever fires on
     * genuinely broken values.
     */
    static constexpr float kSpeculationLimit = 1e18f;

  protected:
    /**
     * Step every bucket whose slice of @p grads passes the speculation
     * guard, snapshotting it first in Snapshot mode.
     */
    void speculativeStep(const float *grads);

    /**
     * Revert every bucket the last speculativeStep() stepped; @p grads
     * must be the gradients that step applied (the algebraic inverse
     * needs them).
     */
    void rollbackStep(const float *grads);

  private:
    std::uint64_t rollbacks_ = 0;
    /** Which buckets the last speculativeStep() actually stepped. */
    std::vector<bool> stepped_;
    // Snapshot-mode buffers (param, m, v per bucket), lazily sized.
    std::vector<float> snap_params_;
    std::vector<std::vector<float>> snap_m_;
    std::vector<std::vector<float>> snap_v_;
};

} // namespace so::stv

#endif // SO_STV_TRAINER_H
