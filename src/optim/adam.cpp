#include "optim/adam.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace so::optim {

namespace {

/** Per-step scalar factors shared by all kernels. */
struct StepScalars
{
    float decay;      // 1 - lr * weight_decay (decoupled).
    float step_size;  // lr / (1 - beta1^t).
    float inv_bc2;    // 1 / sqrt(1 - beta2^t).
    float one_minus_b1;
    float one_minus_b2;
};

StepScalars
scalars(const AdamConfig &cfg, std::int64_t step)
{
    SO_ASSERT(step >= 1, "Adam step numbers are 1-based, got ", step);
    const double bc1 =
        1.0 - std::pow(static_cast<double>(cfg.beta1), step);
    const double bc2 =
        1.0 - std::pow(static_cast<double>(cfg.beta2), step);
    StepScalars s;
    s.decay = 1.0f - cfg.lr * cfg.weight_decay;
    s.step_size = static_cast<float>(cfg.lr / bc1);
    s.inv_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));
    s.one_minus_b1 = 1.0f - cfg.beta1;
    s.one_minus_b2 = 1.0f - cfg.beta2;
    return s;
}

/**
 * The fused per-element update, shared by the Fused and Grace kernels.
 * so_optim builds with -fno-math-errno, so std::sqrt carries no errno
 * branch and this loop compiles to packed square roots and divisions at
 * the baseline ISA (SSE2 on x86-64); IEEE rounds packed and scalar
 * sqrt, div, mul and add alike, and -ffp-contract=off keeps FMA out, so
 * every output bit equals the scalar statement's. Keep the body free of
 * branches and calls: either would make it scalar again, which CI's
 * sqrtps check on this object catches.
 */
inline void
fusedRange(const AdamConfig &cfg, const StepScalars &s, float *__restrict p,
           float *__restrict m, float *__restrict v,
           const float *__restrict g, std::size_t begin, std::size_t end)
{
    const float b1 = cfg.beta1;
    const float b2 = cfg.beta2;
    const float omb1 = s.one_minus_b1;
    const float omb2 = s.one_minus_b2;
    const float eps = cfg.eps;
    const float step_size = s.step_size;
    const float inv_bc2 = s.inv_bc2;
    const float decay = s.decay;
    for (std::size_t i = begin; i < end; ++i) {
        const float grad = g[i];
        const float mi = b1 * m[i] + omb1 * grad;
        const float vi = b2 * v[i] + omb2 * grad * grad;
        m[i] = mi;
        v[i] = vi;
        const float denom = std::sqrt(vi) * inv_bc2 + eps;
        p[i] = decay * p[i] - step_size * (mi / denom);
    }
}

} // namespace

void
adamStepNaive(const AdamConfig &cfg, std::int64_t step, float *param,
              float *m, float *v, const float *grad, std::size_t n)
{
    const StepScalars s = scalars(cfg, step);
    // The unfused formulation a framework executes as separate vector
    // ops. Each loop is one whole-array pass; the temporaries add two
    // more streams of memory traffic. This is what makes "PT-CPU" ~3x
    // slower than the fused kernels (Table 3) — same math, more DRAM.
    std::vector<float> tmp(n);
    std::vector<float> denom(n);

    for (std::size_t i = 0; i < n; ++i)        // m *= beta1
        m[i] *= cfg.beta1;
    for (std::size_t i = 0; i < n; ++i)        // m += (1-beta1) * g
        m[i] += s.one_minus_b1 * grad[i];
    for (std::size_t i = 0; i < n; ++i)        // tmp = g * g
        tmp[i] = grad[i] * grad[i];
    for (std::size_t i = 0; i < n; ++i)        // v *= beta2
        v[i] *= cfg.beta2;
    for (std::size_t i = 0; i < n; ++i)        // v += (1-beta2) * tmp
        v[i] += s.one_minus_b2 * tmp[i];
    for (std::size_t i = 0; i < n; ++i)        // denom = sqrt(v)
        denom[i] = std::sqrt(v[i]);
    for (std::size_t i = 0; i < n; ++i)        // denom = denom/sqrt(bc2)+eps
        denom[i] = denom[i] * s.inv_bc2 + cfg.eps;
    for (std::size_t i = 0; i < n; ++i)        // tmp = m / denom
        tmp[i] = m[i] / denom[i];
    if (s.decay != 1.0f) {
        for (std::size_t i = 0; i < n; ++i)    // decoupled weight decay
            param[i] *= s.decay;
    }
    for (std::size_t i = 0; i < n; ++i)        // p -= step_size * tmp
        param[i] -= s.step_size * tmp[i];
}

void
adamStepFused(const AdamConfig &cfg, std::int64_t step, float *param,
              float *m, float *v, const float *grad, std::size_t n)
{
    const StepScalars s = scalars(cfg, step);
    fusedRange(cfg, s, param, m, v, grad, 0, n);
}

void
adamStepGrace(const AdamConfig &cfg, std::int64_t step, float *param,
              float *m, float *v, const float *grad, std::size_t n,
              ThreadPool *pool)
{
    const StepScalars s = scalars(cfg, step);
    auto run_range = [&](std::size_t begin, std::size_t end) {
        fusedRange(cfg, s, param, m, v, grad, begin, end);
    };
    // The pool's workers claim cache-sized blocks (ThreadPool::kBlock),
    // the portable counterpart of §4.6's "tiled processing approach ...
    // cache friendly chunks (TILE size)".
    if (pool)
        pool->parallelFor(n, run_range);
    else
        run_range(0, n);
}

void
adamStepGraceFp16(const AdamConfig &cfg, std::int64_t step, float *param,
                  Half *param_fp16, float *m, float *v, const float *grad,
                  std::size_t n, ThreadPool *pool)
{
    const StepScalars s = scalars(cfg, step);
    // A tile, not the pool's block, bounds the shadow write below: run
    // without a pool, the whole range arrives at once.
    constexpr std::size_t kTile = 4096;

    auto run_range = [&](std::size_t begin, std::size_t end) {
        for (std::size_t tile = begin; tile < end; tile += kTile) {
            const std::size_t hi = std::min(tile + kTile, end);
            fusedRange(cfg, s, param, m, v, grad, tile, hi);
            // Shadow-copy write while the tile is still cache-hot.
            for (std::size_t i = tile; i < hi; ++i)
                param_fp16[i] = floatToHalf(param[i]);
        }
    };

    if (pool)
        pool->parallelFor(n, run_range);
    else
        run_range(0, n);
}

void
adamStepInverse(const AdamConfig &cfg, std::int64_t step, float *param,
                float *m, float *v, const float *grad, std::size_t n)
{
    // Use the *same* rounded per-step scalar factors the forward kernel
    // used (promoted to double); mixing in freshly-computed doubles
    // would make the reconstruction disagree with the forward pass by
    // far more than one float ulp.
    const StepScalars s = scalars(cfg, step);
    const double b1 = cfg.beta1;
    const double b2 = cfg.beta2;
    const double omb1 = s.one_minus_b1;
    const double omb2 = s.one_minus_b2;
    const double step_size = s.step_size;
    const double inv_bc2 = s.inv_bc2;
    const double decay = s.decay;
    for (std::size_t i = 0; i < n; ++i) {
        const double g = grad[i];
        // The post-step m and v are exactly what the forward kernel
        // computed, so the parameter reconstruction can reuse them
        // before they are themselves inverted.
        const double mi = m[i];
        const double vi = v[i];
        const double denom =
            std::sqrt(vi) * inv_bc2 + static_cast<double>(cfg.eps);
        const double p_prev =
            (static_cast<double>(param[i]) + step_size * (mi / denom)) /
            decay;
        param[i] = static_cast<float>(p_prev);
        m[i] = static_cast<float>((mi - omb1 * g) / b1);
        // Rounding can drive the reconstructed variance a hair below
        // zero when the true value is ~0; clamp, or the next step's
        // sqrt would poison the parameter with NaN.
        v[i] = static_cast<float>(std::max(0.0, (vi - omb2 * g * g) / b2));
    }
}

Adam::Adam(AdamConfig cfg, AdamKernel kernel, ThreadPool *pool)
    : cfg_(cfg), kernel_(kernel), pool_(pool)
{
}

std::size_t
Adam::addParameter(std::size_t n)
{
    SO_ASSERT(n > 0, "empty parameter tensor");
    Slot slot;
    slot.m.assign(n, 0.0f);
    slot.v.assign(n, 0.0f);
    slots_.push_back(std::move(slot));
    return slots_.size() - 1;
}

std::size_t
Adam::size(std::size_t slot) const
{
    return slotRef(slot).m.size();
}

void
Adam::step(std::size_t slot, float *param, const float *grad)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    Slot &state = slots_[slot];
    const std::int64_t step_no = state.steps + 1;
    const std::size_t n = state.m.size();
    switch (kernel_) {
      case AdamKernel::Naive:
        adamStepNaive(cfg_, step_no, param, state.m.data(),
                      state.v.data(), grad, n);
        break;
      case AdamKernel::Fused:
        adamStepFused(cfg_, step_no, param, state.m.data(),
                      state.v.data(), grad, n);
        break;
      case AdamKernel::Grace:
        adamStepGrace(cfg_, step_no, param, state.m.data(),
                      state.v.data(), grad, n, pool_);
        break;
    }
    state.steps = step_no;
}

void
Adam::stepWithFp16Shadow(std::size_t slot, float *param, Half *param_fp16,
                         const float *grad)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    Slot &state = slots_[slot];
    const std::int64_t step_no = state.steps + 1;
    adamStepGraceFp16(cfg_, step_no, param, param_fp16, state.m.data(),
                      state.v.data(), grad, state.m.size(), pool_);
    state.steps = step_no;
}

void
Adam::rollback(std::size_t slot, float *param, const float *grad)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    Slot &state = slots_[slot];
    SO_ASSERT(state.steps >= 1, "rollback without a prior step");
    adamStepInverse(cfg_, state.steps, param, state.m.data(),
                    state.v.data(), grad, state.m.size());
    --state.steps;
}

void
Adam::restoreState(std::size_t slot, const float *m, const float *v,
                   std::int64_t steps)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    SO_ASSERT(steps >= 0, "negative step count");
    Slot &state = slots_[slot];
    std::copy(m, m + state.m.size(), state.m.begin());
    std::copy(v, v + state.v.size(), state.v.begin());
    state.steps = steps;
}

void
Adam::setLearningRate(float lr)
{
    SO_ASSERT(lr > 0.0f, "learning rate must be positive");
    cfg_.lr = lr;
}

std::int64_t
Adam::stepCount(std::size_t slot) const
{
    return slotRef(slot).steps;
}

const std::vector<float> &
Adam::momentum(std::size_t slot) const
{
    return slotRef(slot).m;
}

const std::vector<float> &
Adam::variance(std::size_t slot) const
{
    return slotRef(slot).v;
}

float *
Adam::momentumData(std::size_t slot)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    return slots_[slot].m.data();
}

float *
Adam::varianceData(std::size_t slot)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    return slots_[slot].v.data();
}

void
Adam::rewindStep(std::size_t slot)
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    SO_ASSERT(slots_[slot].steps >= 1, "rewind without a prior step");
    --slots_[slot].steps;
}

const Adam::Slot &
Adam::slotRef(std::size_t slot) const
{
    SO_ASSERT(slot < slots_.size(), "unknown Adam slot ", slot);
    return slots_[slot];
}

} // namespace so::optim
