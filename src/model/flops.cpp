#include "model/flops.h"

#include "common/logging.h"

namespace so::model {

double
IterationFlops::modelFlops() const
{
    return fwd_gemm + fwd_attn + bwd_gemm + bwd_attn;
}

double
IterationFlops::executedFlops() const
{
    return modelFlops() + recompute_gemm + recompute_attn;
}

double
fwdGemmFlops(const ModelConfig &cfg, double batch, double seq)
{
    SO_ASSERT(batch > 0.0 && seq > 0.0, "batch and seq must be positive");
    const double tokens = batch * seq;
    // 2 flops per parameter per token for the linear layers, plus the
    // LM-head projection onto the vocabulary.
    return 2.0 * tokens * cfg.matmulParams() +
           2.0 * tokens * static_cast<double>(cfg.hidden) * cfg.vocab;
}

double
fwdAttnFlops(const ModelConfig &cfg, double batch, double seq)
{
    SO_ASSERT(batch > 0.0 && seq > 0.0, "batch and seq must be positive");
    // Per layer: QK^T is 2*b*s^2*h flops, AV another 2*b*s^2*h.
    return 4.0 * batch * seq * seq * static_cast<double>(cfg.hidden) *
           cfg.layers;
}

IterationFlops
iterationFlops(const ModelConfig &cfg, double batch, double seq,
               bool activation_checkpointing)
{
    IterationFlops flops;
    flops.fwd_gemm = fwdGemmFlops(cfg, batch, seq);
    flops.fwd_attn = fwdAttnFlops(cfg, batch, seq);
    // Backward re-traverses each matmul twice (grad wrt input and wrt
    // weights): 2x the forward cost.
    flops.bwd_gemm = 2.0 * flops.fwd_gemm;
    flops.bwd_attn = 2.0 * flops.fwd_attn;
    if (activation_checkpointing) {
        flops.recompute_gemm = flops.fwd_gemm;
        flops.recompute_attn = flops.fwd_attn;
    }
    return flops;
}

double
mfu(const IterationFlops &flops, double elapsed_seconds, double gpus,
    double peak_flops_per_gpu)
{
    SO_ASSERT(elapsed_seconds > 0.0, "elapsed time must be positive");
    SO_ASSERT(gpus > 0.0 && peak_flops_per_gpu > 0.0,
              "invalid hardware parameters");
    return flops.modelFlops() /
           (elapsed_seconds * gpus * peak_flops_per_gpu);
}

} // namespace so::model
