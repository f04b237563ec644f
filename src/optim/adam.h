/**
 * @file
 * Adam/AdamW optimizer kernels at three optimization levels, mirroring
 * the implementations compared in the paper's Table 3:
 *
 *  - adamStepNaive  — "PT-CPU": the unfused multi-pass formulation a
 *    framework executes as a sequence of whole-tensor vector ops, each
 *    re-streaming the arrays through memory;
 *  - adamStepFused  — "CPU-Adam": a single fused pass per element,
 *    compiled to packed SIMD at the build's baseline ISA (DeepSpeed's
 *    x86 SIMD design);
 *  - adamStepGrace  — "GraceAdam" (§4.6): the same fused SIMD update
 *    over cache-sized blocks that a ThreadPool's workers claim — the
 *    portable analogue of SVE + tiling + OpenMP on Grace.
 *
 * All three compute the same mathematical update; Fused and Grace agree
 * bit for bit with the scalar statement of the fused update, however
 * the work is vectorized or split. An exact algebraic inverse
 * (adamStepInverse) supports STV's in-place rollback (§4.4).
 */
#ifndef SO_OPTIM_ADAM_H
#define SO_OPTIM_ADAM_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "optim/half.h"

namespace so {
class ThreadPool;
}

namespace so::optim {

/** AdamW hyperparameters (decoupled weight decay). */
struct AdamConfig
{
    float lr = 1e-3f;
    float beta1 = 0.9f;
    float beta2 = 0.999f;
    float eps = 1e-8f;
    /** Decoupled weight decay; 0 disables it. */
    float weight_decay = 0.0f;
};

/**
 * Unfused multi-pass Adam step ("PT-CPU").
 * @param step 1-based step number (for bias correction).
 */
void adamStepNaive(const AdamConfig &cfg, std::int64_t step, float *param,
                   float *m, float *v, const float *grad, std::size_t n);

/** Fused single-pass SIMD Adam step on one thread ("CPU-Adam"). */
void adamStepFused(const AdamConfig &cfg, std::int64_t step, float *param,
                   float *m, float *v, const float *grad, std::size_t n);

/**
 * Fused SIMD Adam step over ThreadPool::parallelFor's cache-sized blocks
 * ("GraceAdam"); bitwise equal to adamStepFused.
 * @param pool workers that claim the blocks; nullptr (or a step that
 * fits one block) runs single-threaded on the caller.
 */
void adamStepGrace(const AdamConfig &cfg, std::int64_t step, float *param,
                   float *m, float *v, const float *grad, std::size_t n,
                   ThreadPool *pool = nullptr);

/**
 * GraceAdam step fused with the fp16 shadow-copy write: mixed-precision
 * offloading keeps an fp16 parameter replica for the next forward pass,
 * and writing it inside the optimizer loop (as DeepSpeed's CPU-Adam and
 * §4.6's GraceAdam do) saves a whole extra pass over the parameters —
 * it is the "+2 bytes/param" of the 30 B/param traffic model
 * (hw::CpuSpec::kAdamBytesPerParam).
 */
void adamStepGraceFp16(const AdamConfig &cfg, std::int64_t step,
                       float *param, Half *param_fp16, float *m, float *v,
                       const float *grad, std::size_t n,
                       ThreadPool *pool = nullptr);

/**
 * Exactly invert one Adam step: given the post-step (param, m, v) and
 * the gradient that produced it, recover the pre-step state. Inversion
 * runs in double precision; the reconstruction is accurate to float
 * rounding. Used by STV's in-place rollback (§4.4) so a mis-speculated
 * update can be reverted without shadow copies.
 */
void adamStepInverse(const AdamConfig &cfg, std::int64_t step, float *param,
                     float *m, float *v, const float *grad, std::size_t n);

/** Which kernel an Adam instance dispatches to. */
enum class AdamKernel { Naive, Fused, Grace };

/**
 * Stateful AdamW over a set of parameter tensors. Owns the momentum and
 * variance buffers; parameters and gradients stay caller-owned so the
 * trainer controls placement (the offloading engine decides where they
 * live).
 */
class Adam
{
  public:
    explicit Adam(AdamConfig cfg, AdamKernel kernel = AdamKernel::Grace,
                  ThreadPool *pool = nullptr);

    /** Register a tensor of @p n elements; returns its slot id. */
    std::size_t addParameter(std::size_t n);

    /** Elements of slot @p slot. */
    std::size_t size(std::size_t slot) const;

    /** Apply one step to slot @p slot; increments its step count. */
    void step(std::size_t slot, float *param, const float *grad);

    /**
     * Apply one step fused with the fp16 shadow-copy write
     * (adamStepGraceFp16); increments the step count. Used by the
     * offloaded mixed-precision trainer.
     */
    void stepWithFp16Shadow(std::size_t slot, float *param,
                            Half *param_fp16, const float *grad);

    /**
     * Invert the most recent step of @p slot (requires the same
     * gradient); decrements its step count.
     */
    void rollback(std::size_t slot, float *param, const float *grad);

    /** Steps applied to @p slot so far. */
    std::int64_t stepCount(std::size_t slot) const;

    /**
     * Update the learning rate for subsequent steps (schedule hook).
     * Rollbacks of steps taken under an earlier rate must re-set it
     * first; the trainers sequence this correctly.
     */
    void setLearningRate(float lr);

    /** Momentum buffer of a slot (test/diagnostic access). */
    const std::vector<float> &momentum(std::size_t slot) const;

    /** Variance buffer of a slot (test/diagnostic access). */
    const std::vector<float> &variance(std::size_t slot) const;

    /** Mutable momentum storage (snapshot-restore rollback). */
    float *momentumData(std::size_t slot);

    /** Mutable variance storage (snapshot-restore rollback). */
    float *varianceData(std::size_t slot);

    /**
     * Decrement the step counter after the caller restored (param, m,
     * v) externally (snapshot rollback). The next step() then reuses
     * the rolled-back step number, exactly like rollback().
     */
    void rewindStep(std::size_t slot);

    /**
     * Overwrite a slot's full optimizer state (checkpoint restore).
     * @p m and @p v must hold size(slot) elements.
     */
    void restoreState(std::size_t slot, const float *m, const float *v,
                      std::int64_t steps);

  private:
    struct Slot
    {
        std::vector<float> m;
        std::vector<float> v;
        std::int64_t steps = 0;
    };

    const Slot &slotRef(std::size_t slot) const;

    AdamConfig cfg_;
    AdamKernel kernel_;
    ThreadPool *pool_;
    std::vector<Slot> slots_;
};

} // namespace so::optim

#endif // SO_OPTIM_ADAM_H
