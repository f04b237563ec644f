/**
 * @file
 * Learning-rate schedules for the numeric training loops.
 *
 * LLM training (the paper's §5.7 run included) pairs Adam with linear
 * warm-up and a decaying tail; warm-up is also when the gradient
 * variance is highest — precisely the phase where STV's rollbacks
 * concentrate (Fig. 14), so the schedule matters to the experiments.
 */
#ifndef SO_OPTIM_LR_SCHEDULE_H
#define SO_OPTIM_LR_SCHEDULE_H

#include <cstdint>

namespace so::optim {

/** Shape of the decay after warm-up. */
enum class LrDecay
{
    /** No decay: constant at base_lr after warm-up. */
    Constant,
    /** Cosine from base_lr to min_lr over the remaining steps. */
    Cosine,
    /** Linear from base_lr to min_lr over the remaining steps. */
    Linear,
};

/** Linear warm-up followed by a configurable decay. */
class LrSchedule
{
  public:
    /** Constant learning rate (no warm-up, no decay). */
    static LrSchedule constant(float lr);

    /**
     * @param base_lr      peak learning rate after warm-up.
     * @param warmup_steps linear ramp 0 -> base_lr over these steps.
     * @param total_steps  horizon for the decay (>= warmup_steps).
     * @param decay        tail shape.
     * @param min_lr       floor the decay approaches.
     */
    LrSchedule(float base_lr, std::int64_t warmup_steps,
               std::int64_t total_steps, LrDecay decay = LrDecay::Cosine,
               float min_lr = 0.0f);

    /** Learning rate at 1-based optimizer step @p step. */
    float at(std::int64_t step) const;

  private:
    float base_lr_;
    float min_lr_;
    std::int64_t warmup_steps_;
    std::int64_t total_steps_;
    LrDecay decay_;
};

} // namespace so::optim

#endif // SO_OPTIM_LR_SCHEDULE_H
