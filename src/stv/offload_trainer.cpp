#include "stv/offload_trainer.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "optim/kernels.h"

namespace so::stv {

OffloadTrainer::OffloadTrainer(nn::Model &model, const TrainerConfig &cfg,
                               CastStrategy cast_strategy)
    : TrainerState(cfg), model_(model), cast_strategy_(cast_strategy),
      adam_(cfg.adam, cfg.kernel)
{
    SO_ASSERT(cfg.buckets >= 1 && cfg.buckets <= model.paramCount(),
              "invalid bucket count");
    const std::size_t n = model.paramCount();
    host_params_.assign(model.params(), model.params() + n);
    host_grads_.assign(n, 0.0f);
    host_param_shadow_.resize(n);
    device_params_.resize(n);
    device_grads_.resize(n);
    // The device copy is the fp16 rounding of the fp32 master.
    optim::castToHalf(host_params_.data(), device_params_.data(), n);
    host_param_shadow_ = device_params_;
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(model_.paramCount(), cfg_.buckets, b, begin, end);
        adam_.addParameter(end - begin);
    }
}

void
OffloadTrainer::materializeDeviceParams()
{
    // The model only ever computes with fp16-representable weights:
    // full mixed-precision semantics.
    optim::castToFloat(device_params_.data(), model_.params(),
                       device_params_.size());
}

void
OffloadTrainer::shipGradients(std::uint32_t bucket)
{
    std::size_t begin, end;
    bucketRange(model_.paramCount(), cfg_.buckets, bucket, begin, end);
    const std::size_t len = end - begin;
    if (cast_strategy_ == CastStrategy::CastGpuMoveFp32) {
        // SAC: the device casts, fp32 crosses the link.
        optim::castToFloat(device_grads_.data() + begin,
                           host_grads_.data() + begin, len);
        bytes_moved_ += 4u * len;
    } else {
        // Classic: fp16 crosses, the host casts.
        bytes_moved_ += 2u * len;
        optim::castToFloat(device_grads_.data() + begin,
                           host_grads_.data() + begin, len);
    }
}

void
OffloadTrainer::returnParams(std::uint32_t bucket)
{
    std::size_t begin, end;
    bucketRange(model_.paramCount(), cfg_.buckets, bucket, begin, end);
    const std::size_t len = end - begin;
    // Either pipeline delivers floatToHalf(master) to the device: SAC
    // ships fp32 and casts device-side, the classic path ships the
    // host-cast fp16 shadow. Only the wire volume differs.
    bytes_moved_ += (cast_strategy_ == CastStrategy::CastGpuMoveFp32
                         ? 4u
                         : 2u) *
                    len;
    std::memcpy(device_params_.data() + begin,
                host_param_shadow_.data() + begin,
                len * sizeof(optim::Half));
}

StepStats
OffloadTrainer::step(const std::uint32_t *inputs,
                     const std::uint32_t *targets, std::size_t count)
{
    StepStats stats;

    // Forward/backward with fp16 weights and loss-scaled gradients.
    materializeDeviceParams();
    stats.loss = model_.trainBatch(inputs, targets, count, loss_scale_);
    optim::castToHalf(model_.grads(), device_grads_.data(),
                      device_grads_.size());

    // Synchronous validation on the fp16 gradients (overflow is a
    // device-side fp16 phenomenon).
    if (optim::hasNanOrInf(device_grads_.data(), device_grads_.size())) {
        stats.overflowed = true;
        updateLossScale(true);
        return stats;
    }

    // Ship every bucket host-ward per the casting strategy.
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b)
        shipGradients(b);

    // Host-side unscale, global norm, clipping.
    optim::scaleInPlace(host_grads_.data(), host_grads_.size(),
                        1.0f / loss_scale_);
    stats.grad_norm = std::sqrt(
        optim::l2NormSquared(host_grads_.data(), host_grads_.size()));
    const double clip = optim::clipScale(stats.grad_norm, cfg_.clip_norm);
    if (clip < 1.0) {
        stats.clipped = true;
        optim::scaleInPlace(host_grads_.data(), host_grads_.size(),
                            static_cast<float>(clip));
    }

    // GraceAdam on the host master, fused with the fp16 shadow write,
    // then return each bucket's params to the device.
    if (cfg_.lr_schedule)
        adam_.setLearningRate(cfg_.lr_schedule->at(steps_taken_ + 1));
    for (std::uint32_t b = 0; b < cfg_.buckets; ++b) {
        std::size_t begin, end;
        bucketRange(model_.paramCount(), cfg_.buckets, b, begin, end);
        adam_.stepWithFp16Shadow(b, host_params_.data() + begin,
                                 host_param_shadow_.data() + begin,
                                 host_grads_.data() + begin);
        returnParams(b);
    }
    ++steps_taken_;
    updateLossScale(false);
    return stats;
}

} // namespace so::stv
