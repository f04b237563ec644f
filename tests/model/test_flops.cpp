#include "model/flops.h"

#include <gtest/gtest.h>

#include "model/config.h"

namespace so::model {
namespace {

TEST(Flops, ForwardGemmMatchesTwoPsTimesTokens)
{
    const ModelConfig cfg = modelPreset("5B");
    const double tokens = 8.0 * 1024.0;
    const double expected =
        2.0 * tokens * cfg.matmulParams() +
        2.0 * tokens * cfg.hidden * cfg.vocab;
    EXPECT_DOUBLE_EQ(fwdGemmFlops(cfg, 8.0, 1024.0), expected);
}

TEST(Flops, AttentionQuadraticInSequence)
{
    const ModelConfig cfg = modelPreset("5B");
    const double a1 = fwdAttnFlops(cfg, 1.0, 1024.0);
    const double a2 = fwdAttnFlops(cfg, 1.0, 2048.0);
    EXPECT_NEAR(a2 / a1, 4.0, 1e-9);
}

TEST(Flops, GemmLinearInSequence)
{
    const ModelConfig cfg = modelPreset("5B");
    const double g1 = fwdGemmFlops(cfg, 1.0, 1024.0);
    const double g2 = fwdGemmFlops(cfg, 1.0, 2048.0);
    EXPECT_NEAR(g2 / g1, 2.0, 1e-9);
}

TEST(Flops, BackwardIsTwiceForward)
{
    const IterationFlops f =
        iterationFlops(modelPreset("5B"), 8.0, 1024.0, false);
    EXPECT_DOUBLE_EQ(f.bwd_gemm, 2.0 * f.fwd_gemm);
    EXPECT_DOUBLE_EQ(f.bwd_attn, 2.0 * f.fwd_attn);
    EXPECT_DOUBLE_EQ(f.recompute_gemm, 0.0);
}

TEST(Flops, CheckpointingAddsOneForward)
{
    const ModelConfig cfg = modelPreset("5B");
    const IterationFlops plain = iterationFlops(cfg, 8.0, 1024.0, false);
    const IterationFlops ckpt = iterationFlops(cfg, 8.0, 1024.0, true);
    EXPECT_DOUBLE_EQ(ckpt.recompute_gemm, plain.fwd_gemm);
    EXPECT_DOUBLE_EQ(ckpt.recompute_attn, plain.fwd_attn);
    // Model flops (the effective-TFLOPS numerator) exclude recompute.
    EXPECT_DOUBLE_EQ(ckpt.modelFlops(), plain.modelFlops());
    EXPECT_GT(ckpt.executedFlops(), plain.executedFlops());
    EXPECT_NEAR(ckpt.executedFlops() / plain.executedFlops(), 4.0 / 3.0,
                1e-9);
}

TEST(Flops, AttentionDominatesAtMillionTokens)
{
    // §5.3's regime: at 1M tokens the quadratic term dwarfs the GEMMs.
    const ModelConfig cfg = modelPreset("13B");
    const IterationFlops f = iterationFlops(cfg, 1.0, 1048576.0, false);
    EXPECT_GT(f.fwd_attn, 10.0 * f.fwd_gemm);
}

TEST(Flops, GemmDominatesAtShortSequences)
{
    const ModelConfig cfg = modelPreset("13B");
    const IterationFlops f = iterationFlops(cfg, 8.0, 1024.0, false);
    EXPECT_GT(f.fwd_gemm, 10.0 * f.fwd_attn);
}

TEST(Flops, SixPsTokensRuleOfThumb)
{
    // fwd+bwd GEMM flops ~ 6 * params * tokens for short sequences.
    const ModelConfig cfg = modelPreset("10B");
    const double tokens = 4.0 * 1024.0;
    const IterationFlops f = iterationFlops(cfg, 4.0, 1024.0, false);
    const double six_pt = 6.0 * cfg.params() * tokens;
    EXPECT_NEAR((f.fwd_gemm + f.bwd_gemm) / six_pt, 1.0, 0.05);
}

TEST(Mfu, KnownValue)
{
    IterationFlops f;
    f.fwd_gemm = 1e12;
    f.bwd_gemm = 2e12;
    // 3e12 flops in 1 s on 1 GPU with 10 TFLOPS peak = 30% MFU.
    EXPECT_DOUBLE_EQ(mfu(f, 1.0, 1.0, 10e12), 0.3);
}

TEST(Mfu, ExcludesRecompute)
{
    IterationFlops f;
    f.fwd_gemm = 1e12;
    f.bwd_gemm = 2e12;
    f.recompute_gemm = 1e12;
    EXPECT_DOUBLE_EQ(mfu(f, 1.0, 1.0, 10e12), 0.3);
}

TEST(Flops, TotalsAggregateCorrectly)
{
    const IterationFlops f =
        iterationFlops(modelPreset("1B"), 2.0, 512.0, true);
    EXPECT_DOUBLE_EQ(f.executedFlops(),
                     (f.fwd_gemm + f.bwd_gemm + f.recompute_gemm) +
                         (f.fwd_attn + f.bwd_attn + f.recompute_attn));
}

} // namespace
} // namespace so::model
