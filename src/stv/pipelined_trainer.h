/**
 * @file
 * Pipelined speculation-then-validation with a real background
 * validation worker (§4.4's deployment shape: "the validation process
 * is implemented using Python multiprocessing, and its results are
 * passed to the GPU through a multiprocessing queue. After the forward
 * pass, the GPU checks whether rollback is needed").
 *
 * Timeline per step i:
 *   1. the previous step's validation verdict is awaited (it has been
 *      running concurrently with everything since step i-1 issued it);
 *   2. if step i-1 mis-speculated, its update is rolled back in place —
 *      and because step i's forward/backward already ran on the
 *      speculative weights, its gradients are recomputed on the
 *      restored weights (this is what keeps the optimization exact);
 *   3. step i's gradients are applied speculatively per bucket;
 *   4. step i's validation (NaN/Inf scan + global norm) is handed to
 *      the background worker, and control returns to the caller.
 *
 * The final trajectory is identical to the synchronous trainer's; the
 * concurrency only moves the validation off the critical path. The
 * speculative step, the rollback (and its snapshot buffers) and the
 * rollback count are StvTrainer's; only the scheduling around them is
 * this class's.
 */
#ifndef SO_STV_PIPELINED_TRAINER_H
#define SO_STV_PIPELINED_TRAINER_H

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "stv/trainer.h"

namespace so::stv {

/** STV with asynchronous background validation. */
class PipelinedStvTrainer : public StvTrainer
{
  public:
    PipelinedStvTrainer(nn::Model &model, const TrainerConfig &cfg);
    ~PipelinedStvTrainer() override;

    /**
     * Run one training step. The returned stats describe THIS step's
     * loss and the validation outcome of the PREVIOUS step (whose
     * verdict becomes available here); `rolled_back` reports whether a
     * deferred rollback was applied at the start of this call.
     */
    StepStats step(const std::uint32_t *inputs,
                   const std::uint32_t *targets,
                   std::size_t count) override;

    /**
     * Wait for the in-flight validation and settle any pending
     * rollback. Call before reading final parameters; the destructor
     * also drains.
     */
    void drain();

    /** Steps whose forward had to be recomputed after a rollback. */
    std::uint64_t recomputeCount() const { return recomputes_; }

  private:
    /** What the background worker computes for one speculation. */
    struct Verdict
    {
        bool overflowed = false;
        double grad_norm = 0.0;
        double clip_scale = 1.0;
    };

    void workerLoop();

    /** Submit the current (unscaled) gradients for validation. */
    void submitValidation();

    /** Block until the in-flight verdict (if any) is available. */
    std::optional<Verdict> awaitVerdict();

    /** Apply / re-execute per the §4.4 rollback scenarios. */
    void applyVerdict(const Verdict &verdict, StepStats &stats);

    // The gradients of the last speculative step (the rollback needs
    // them, and the worker scans them).
    std::vector<float> last_grads_;
    bool speculation_in_flight_ = false;

    // Worker state.
    std::thread worker_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool job_ready_ = false;
    bool verdict_ready_ = false;
    bool stop_ = false;
    Verdict verdict_;

    std::uint64_t recomputes_ = 0;
};

} // namespace so::stv

#endif // SO_STV_PIPELINED_TRAINER_H
