/**
 * @file
 * The §4.5 data path on real memory: a mixed-precision trainer whose
 * parameters genuinely live in two places, exactly as on a Superchip —
 *
 *   device side: fp16 parameters (what the forward/backward computes
 *                with) and fp16 gradients;
 *   host side:   fp32 master parameters + Adam moments.
 *
 * Per iteration, per 64 MB-style bucket:
 *   1. device gradients are produced in fp16 (a real binary16
 *      round-trip — this is where loss-scale overflows are born);
 *   2. under SAC the bucket is cast fp16 -> fp32 on the "device" (real
 *      cast kernel) and the fp32 tensor crosses to the host; the
 *      classic path ships fp16 and casts on the host instead;
 *   3. GraceAdam updates the host master, writing the fp16 shadow copy
 *      in the same fused pass (adamStepGraceFp16);
 *   4. the updated fp16 shadow returns to the device.
 *
 * The training semantics are full mixed precision: the model only ever
 * computes with fp16-representable weights. Validation (overflow skip,
 * global-norm clipping) is synchronous here — this class is about the
 * placement/casting data path; the STV schedule variants live in
 * trainer.h / pipelined_trainer.h. The bucket layout and the loss-scale
 * rule are the ones trainer.h states for every trainer.
 */
#ifndef SO_STV_OFFLOAD_TRAINER_H
#define SO_STV_OFFLOAD_TRAINER_H

#include <cstdint>
#include <vector>

#include "core/sac.h"
#include "stv/trainer.h"

namespace so::stv {

/** Where the fp16<->fp32 casts run (§4.5's two pipelines). */
using core::CastStrategy;

/** Mixed-precision trainer with explicit device/host state placement. */
class OffloadTrainer : public TrainerState
{
  public:
    OffloadTrainer(nn::Model &model, const TrainerConfig &cfg,
                   CastStrategy cast_strategy =
                       CastStrategy::CastGpuMoveFp32);

    /** Run one training step; same stats semantics as SyncTrainer. */
    StepStats step(const std::uint32_t *inputs,
                   const std::uint32_t *targets, std::size_t count);

    /** Host-side fp32 master parameters (read-only). */
    const std::vector<float> &masterParams() const { return host_params_; }

    /** Device-side fp16 parameters (read-only). */
    const std::vector<optim::Half> &deviceParams() const
    {
        return device_params_;
    }

    /** Bytes that crossed the device<->host boundary so far. */
    std::uint64_t bytesMoved() const { return bytes_moved_; }

  private:
    /** Expand fp16 device params into the model's compute buffer. */
    void materializeDeviceParams();

    /** Stage one gradient bucket host-ward per the cast strategy. */
    void shipGradients(std::uint32_t bucket);

    /** Return one bucket's updated fp16 params to the device. */
    void returnParams(std::uint32_t bucket);

    nn::Model &model_;
    CastStrategy cast_strategy_;
    optim::Adam adam_;
    std::uint64_t bytes_moved_ = 0;

    // Device-side state.
    std::vector<optim::Half> device_params_;
    std::vector<optim::Half> device_grads_;

    // Host-side state.
    std::vector<float> host_params_;
    std::vector<float> host_grads_;
    std::vector<optim::Half> host_param_shadow_;
};

} // namespace so::stv

#endif // SO_STV_OFFLOAD_TRAINER_H
