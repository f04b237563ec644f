/**
 * @file
 * FLOP accounting for transformer training iterations.
 *
 * §4.2 of the paper approximates the forward pass as
 * 2 * bsz * seq * params; we additionally track the attention term
 * (quadratic in sequence length), which dominates in the long-sequence
 * regime of Fig. 12, and the recompute term added by activation
 * checkpointing (excluded from effective-TFLOPS reporting, per §5.2).
 */
#ifndef SO_MODEL_FLOPS_H
#define SO_MODEL_FLOPS_H

#include "model/config.h"

namespace so::model {

/** FLOP breakdown of one training iteration for one data shard. */
struct IterationFlops
{
    /** Forward GEMM flops (linear layers + LM head). */
    double fwd_gemm = 0.0;
    /** Forward attention flops (QK^T and AV, quadratic in seq). */
    double fwd_attn = 0.0;
    /** Backward GEMM flops (2x forward). */
    double bwd_gemm = 0.0;
    /** Backward attention flops. */
    double bwd_attn = 0.0;
    /** Extra forward flops re-executed by activation checkpointing. */
    double recompute_gemm = 0.0;
    double recompute_attn = 0.0;

    /** Model flops (fwd + bwd), the numerator of effective TFLOPS. */
    double modelFlops() const;

    /** All executed flops including recompute. */
    double executedFlops() const;
};

/**
 * FLOPs of one iteration over @p batch sequences of @p seq tokens.
 * @param activation_checkpointing adds one forward recompute.
 */
IterationFlops iterationFlops(const ModelConfig &cfg, double batch,
                              double seq, bool activation_checkpointing);

/** Forward GEMM flops only (2 * tokens * matmul params + LM head). */
double fwdGemmFlops(const ModelConfig &cfg, double batch, double seq);

/** Forward attention flops only (4 * batch * seq^2 * hidden per layer). */
double fwdAttnFlops(const ModelConfig &cfg, double batch, double seq);

/**
 * Model FLOPS utilization: modelFlops / elapsed / (gpus * peak).
 * Recompute is excluded from the numerator, matching the paper.
 */
double mfu(const IterationFlops &flops, double elapsed_seconds,
           double gpus, double peak_flops_per_gpu);

} // namespace so::model

#endif // SO_MODEL_FLOPS_H
