#include "optim/adam.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace so::optim {
namespace {

struct AdamState
{
    std::vector<float> p, m, v, g;

    explicit AdamState(std::size_t n, std::uint64_t seed = 41)
        : p(n), m(n, 0.0f), v(n, 0.0f), g(n)
    {
        Rng rng(seed);
        for (std::size_t i = 0; i < n; ++i) {
            p[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
            g[i] = static_cast<float>(rng.gaussian(0.0, 0.1));
        }
    }
};

AdamConfig
defaultConfig()
{
    AdamConfig cfg;
    cfg.lr = 1e-3f;
    cfg.weight_decay = 0.01f;
    return cfg;
}

TEST(AdamKernels, FirstStepMatchesClosedForm)
{
    // After step 1 with m=v=0: m = (1-b1)g, v = (1-b2)g^2, and the
    // bias-corrected update equals ~ -lr * sign(g) for eps << |g|.
    AdamConfig cfg;
    cfg.lr = 0.1f;
    cfg.weight_decay = 0.0f;
    std::vector<float> p{1.0f}, m{0.0f}, v{0.0f}, g{0.5f};
    adamStepFused(cfg, 1, p.data(), m.data(), v.data(), g.data(), 1);
    EXPECT_NEAR(m[0], 0.05f, 1e-7);
    EXPECT_NEAR(v[0], 0.00025f, 1e-8);
    // mhat = g, vhat = g^2 -> update = -lr * g/|g| = -0.1.
    EXPECT_NEAR(p[0], 0.9f, 1e-4);
}

TEST(AdamKernels, NaiveAndFusedAgree)
{
    const std::size_t n = 4099; // Deliberately not a multiple of 4.
    AdamState a(n), b(n);
    const AdamConfig cfg = defaultConfig();
    for (std::int64_t step = 1; step <= 5; ++step) {
        adamStepNaive(cfg, step, a.p.data(), a.m.data(), a.v.data(),
                      a.g.data(), n);
        adamStepFused(cfg, step, b.p.data(), b.m.data(), b.v.data(),
                      b.g.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(a.p[i], b.p[i], 2e-6f) << i;
        ASSERT_NEAR(a.m[i], b.m[i], 1e-6f) << i;
        ASSERT_NEAR(a.v[i], b.v[i], 1e-7f) << i;
    }
}

TEST(AdamKernels, FusedAndGraceAreBitwiseIdentical)
{
    const std::size_t n = 20000;
    AdamState a(n), b(n);
    const AdamConfig cfg = defaultConfig();
    for (std::int64_t step = 1; step <= 3; ++step) {
        adamStepFused(cfg, step, a.p.data(), a.m.data(), a.v.data(),
                      a.g.data(), n);
        adamStepGrace(cfg, step, b.p.data(), b.m.data(), b.v.data(),
                      b.g.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.p[i], b.p[i]) << i;
        ASSERT_EQ(a.m[i], b.m[i]) << i;
        ASSERT_EQ(a.v[i], b.v[i]) << i;
    }
}

TEST(AdamKernels, GraceThreadedMatchesSingleThreaded)
{
    const std::size_t n = 100000;
    AdamState a(n), b(n);
    const AdamConfig cfg = defaultConfig();
    ThreadPool pool(4);
    for (std::int64_t step = 1; step <= 2; ++step) {
        adamStepGrace(cfg, step, a.p.data(), a.m.data(), a.v.data(),
                      a.g.data(), n, nullptr);
        adamStepGrace(cfg, step, b.p.data(), b.m.data(), b.v.data(),
                      b.g.data(), n, &pool);
    }
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(a.p[i], b.p[i]) << i;
}

TEST(AdamKernels, Fp16FusedVariantMatchesGraceAndWritesShadow)
{
    const std::size_t n = 10000;
    AdamState a(n, 61), b(n, 61);
    std::vector<Half> shadow(n);
    const AdamConfig cfg = defaultConfig();
    for (std::int64_t step = 1; step <= 3; ++step) {
        adamStepGrace(cfg, step, a.p.data(), a.m.data(), a.v.data(),
                      a.g.data(), n);
        adamStepGraceFp16(cfg, step, b.p.data(), shadow.data(),
                          b.m.data(), b.v.data(), b.g.data(), n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.p[i], b.p[i]) << i;
        // The shadow copy is the fp16 rounding of the fp32 master.
        ASSERT_EQ(shadow[i].bits, floatToHalf(b.p[i]).bits) << i;
    }
}

TEST(AdamKernels, Fp16FusedThreadedMatchesSingleThreaded)
{
    const std::size_t n = 60000;
    AdamState a(n, 67), b(n, 67);
    std::vector<Half> sa(n), sb(n);
    ThreadPool pool(3);
    const AdamConfig cfg = defaultConfig();
    adamStepGraceFp16(cfg, 1, a.p.data(), sa.data(), a.m.data(),
                      a.v.data(), a.g.data(), n, nullptr);
    adamStepGraceFp16(cfg, 1, b.p.data(), sb.data(), b.m.data(),
                      b.v.data(), b.g.data(), n, &pool);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(a.p[i], b.p[i]);
        ASSERT_EQ(sa[i].bits, sb[i].bits);
    }
}

/**
 * The update the vectorized kernels must reproduce bit for bit, stated
 * one element at a time: the per-step factors rounded as adam.cpp
 * rounds them, then the fused element update in the same operation
 * order. This file builds with -ffp-contract=off like so_optim, so the
 * pin means the same on an FMA target.
 */
void
scalarAdamStep(const AdamConfig &cfg, std::int64_t step, float *p,
               float *m, float *v, const float *g, std::size_t n)
{
    const double bc1 = 1.0 - std::pow(static_cast<double>(cfg.beta1), step);
    const double bc2 = 1.0 - std::pow(static_cast<double>(cfg.beta2), step);
    const float decay = 1.0f - cfg.lr * cfg.weight_decay;
    const float step_size = static_cast<float>(cfg.lr / bc1);
    const float inv_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));
    for (std::size_t i = 0; i < n; ++i) {
        const float mi = cfg.beta1 * m[i] + (1.0f - cfg.beta1) * g[i];
        const float vi =
            cfg.beta2 * v[i] + (1.0f - cfg.beta2) * g[i] * g[i];
        m[i] = mi;
        v[i] = vi;
        p[i] = decay * p[i] -
               step_size * (mi / (std::sqrt(vi) * inv_bc2 + cfg.eps));
    }
}

/**
 * Buffers one element longer than the step, so the kernels start at
 * data() + 1, off the vector alignment. Gradients cycle through zero,
 * subnormal, +-1e3 and ordinary values, so each vector lane sees every
 * kind.
 */
class UnalignedState
{
  public:
    explicit UnalignedState(std::size_t n)
        : p_(n + 1), m_(n + 1, 0.0f), v_(n + 1, 0.0f), g_(n + 1),
          shadow_(n + 1)
    {
        constexpr float kSubnormal = std::numeric_limits<float>::denorm_min();
        Rng rng(83);
        for (std::size_t i = 0; i <= n; ++i) {
            p_[i] = static_cast<float>(rng.gaussian(0.0, 1.0));
            const float normal = static_cast<float>(rng.gaussian(0.0, 0.1));
            const float kinds[] = {0.0f,  kSubnormal * 37.0f, 1e3f, -1e3f,
                                   -kSubnormal, normal,       normal};
            g_[i] = kinds[i % std::size(kinds)];
        }
    }

    float *p() { return p_.data() + 1; }
    float *m() { return m_.data() + 1; }
    float *v() { return v_.data() + 1; }
    const float *g() const { return g_.data() + 1; }
    Half *shadow() { return shadow_.data() + 1; }

  private:
    std::vector<float> p_, m_, v_, g_;
    std::vector<Half> shadow_;
};

/** First index where two float arrays differ in any bit, or n. */
std::size_t
firstBitDifference(const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        if (std::bit_cast<std::uint32_t>(a[i]) !=
            std::bit_cast<std::uint32_t>(b[i]))
            return i;
    return n;
}

TEST(AdamKernels, VectorizedKernelsMatchScalarStatementBitForBit)
{
    const AdamConfig cfg = defaultConfig();
    constexpr std::size_t B = ThreadPool::kBlock;
    ThreadPool pool2(2), pool3(3), pool4(4);
    const std::pair<const char *, ThreadPool *> pools[] = {
        {"no pool", nullptr}, {"2 workers", &pool2},
        {"3 workers", &pool3}, {"4 workers", &pool4}};
    using Kernel = std::function<void(std::int64_t, UnalignedState &)>;

    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                          std::size_t{15}, std::size_t{4095},
                          std::size_t{4097}, B - 1, B + 1, 3 * B + 7}) {
        UnalignedState ref(n);
        for (std::int64_t step = 1; step <= 3; ++step)
            scalarAdamStep(cfg, step, ref.p(), ref.m(), ref.v(), ref.g(), n);

        // Three steps of @p kernel on a fresh copy, compared bit for bit.
        auto check = [&](const std::string &name, const Kernel &kernel,
                         bool has_shadow) {
            SCOPED_TRACE(name + ", n = " + std::to_string(n));
            UnalignedState s(n);
            for (std::int64_t step = 1; step <= 3; ++step)
                kernel(step, s);
            EXPECT_EQ(firstBitDifference(s.p(), ref.p(), n), n) << "p";
            EXPECT_EQ(firstBitDifference(s.m(), ref.m(), n), n) << "m";
            EXPECT_EQ(firstBitDifference(s.v(), ref.v(), n), n) << "v";
            for (std::size_t i = 0; has_shadow && i < n; ++i)
                ASSERT_EQ(s.shadow()[i].bits, floatToHalf(ref.p()[i]).bits)
                    << "shadow " << i;
        };
        check("fused", [&](std::int64_t step, UnalignedState &s) {
            adamStepFused(cfg, step, s.p(), s.m(), s.v(), s.g(), n);
        }, false);
        for (const auto &[workers, pool] : pools) {
            ThreadPool *const on = pool;
            check(std::string("grace, ") + workers,
                  [&](std::int64_t step, UnalignedState &s) {
                      adamStepGrace(cfg, step, s.p(), s.m(), s.v(), s.g(),
                                    n, on);
                  },
                  false);
            check(std::string("grace fp16, ") + workers,
                  [&](std::int64_t step, UnalignedState &s) {
                      adamStepGraceFp16(cfg, step, s.p(), s.shadow(),
                                        s.m(), s.v(), s.g(), n, on);
                  },
                  true);
        }
    }
}

TEST(AdamKernels, InverseRecoversPreStepState)
{
    const std::size_t n = 10000;
    AdamState s(n);
    const std::vector<float> p0 = s.p, m0 = s.m, v0 = s.v;
    const AdamConfig cfg = defaultConfig();
    adamStepFused(cfg, 1, s.p.data(), s.m.data(), s.v.data(), s.g.data(),
                  n);
    adamStepInverse(cfg, 1, s.p.data(), s.m.data(), s.v.data(),
                    s.g.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(s.p[i], p0[i], 4e-6f) << i;
        ASSERT_NEAR(s.m[i], m0[i], 1e-6f) << i;
        ASSERT_NEAR(s.v[i], v0[i], 1e-7f) << i;
    }
}

TEST(AdamKernels, InverseAfterManySteps)
{
    const std::size_t n = 1000;
    AdamState s(n);
    const AdamConfig cfg = defaultConfig();
    Rng rng(53);
    // Run 10 steps with changing gradients; invert only the last.
    std::vector<float> last_grad(n);
    for (std::int64_t step = 1; step <= 10; ++step) {
        for (auto &g : s.g)
            g = static_cast<float>(rng.gaussian(0.0, 0.1));
        if (step == 10)
            last_grad = s.g;
        adamStepFused(cfg, step, s.p.data(), s.m.data(), s.v.data(),
                      s.g.data(), n);
        if (step == 9) {
            // Snapshot the state before the final step.
        }
    }
    std::vector<float> p9 = s.p, m9 = s.m, v9 = s.v;
    // Step 11 forward then invert it: must return to the snapshot.
    for (auto &g : s.g)
        g = static_cast<float>(rng.gaussian(0.0, 0.1));
    adamStepFused(cfg, 11, s.p.data(), s.m.data(), s.v.data(), s.g.data(),
                  n);
    adamStepInverse(cfg, 11, s.p.data(), s.m.data(), s.v.data(),
                    s.g.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(s.p[i], p9[i], 4e-6f);
        ASSERT_NEAR(s.m[i], m9[i], 1e-6f);
        ASSERT_NEAR(s.v[i], v9[i], 1e-7f);
    }
}

TEST(AdamKernels, RollbackThenReExecuteEqualsDirectClippedStep)
{
    // The STV clipping scenario (§4.4): step with unclipped gradients,
    // roll back, re-execute with clipped gradients; compare against a
    // reference that stepped with clipped gradients directly.
    const std::size_t n = 5000;
    AdamState spec(n, 77), ref(n, 77);
    const AdamConfig cfg = defaultConfig();
    const float clip = 0.25f;

    adamStepFused(cfg, 1, spec.p.data(), spec.m.data(), spec.v.data(),
                  spec.g.data(), n);
    adamStepInverse(cfg, 1, spec.p.data(), spec.m.data(), spec.v.data(),
                    spec.g.data(), n);
    std::vector<float> clipped = spec.g;
    for (auto &g : clipped)
        g *= clip;
    adamStepFused(cfg, 1, spec.p.data(), spec.m.data(), spec.v.data(),
                  clipped.data(), n);

    std::vector<float> ref_clipped = ref.g;
    for (auto &g : ref_clipped)
        g *= clip;
    adamStepFused(cfg, 1, ref.p.data(), ref.m.data(), ref.v.data(),
                  ref_clipped.data(), n);

    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(spec.p[i], ref.p[i], 4e-6f) << i;
        ASSERT_NEAR(spec.m[i], ref.m[i], 1e-6f) << i;
        ASSERT_NEAR(spec.v[i], ref.v[i], 1e-7f) << i;
    }
}

TEST(AdamKernels, WeightDecayIsDecoupled)
{
    // With zero gradients, AdamW shrinks weights by (1 - lr*wd).
    AdamConfig cfg;
    cfg.lr = 0.1f;
    cfg.weight_decay = 0.5f;
    std::vector<float> p{2.0f}, m{0.0f}, v{0.0f}, g{0.0f};
    adamStepFused(cfg, 1, p.data(), m.data(), v.data(), g.data(), 1);
    EXPECT_NEAR(p[0], 2.0f * (1.0f - 0.1f * 0.5f), 1e-6f);
}

class AdamClassTest : public ::testing::TestWithParam<AdamKernel>
{
};

TEST_P(AdamClassTest, StepAndRollbackRoundTrip)
{
    Adam adam(defaultConfig(), GetParam());
    const std::size_t n = 2048;
    const std::size_t slot = adam.addParameter(n);
    AdamState s(n, 99);
    const std::vector<float> p0 = s.p;

    adam.step(slot, s.p.data(), s.g.data());
    EXPECT_EQ(adam.stepCount(slot), 1);
    adam.rollback(slot, s.p.data(), s.g.data());
    EXPECT_EQ(adam.stepCount(slot), 0);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NEAR(s.p[i], p0[i], 4e-6f);
}

INSTANTIATE_TEST_SUITE_P(Kernels, AdamClassTest,
                         ::testing::Values(AdamKernel::Naive,
                                           AdamKernel::Fused,
                                           AdamKernel::Grace));

TEST(AdamClass, MultipleSlotsAreIndependent)
{
    Adam adam(defaultConfig(), AdamKernel::Fused);
    const std::size_t a = adam.addParameter(100);
    const std::size_t b = adam.addParameter(200);
    EXPECT_EQ(adam.size(a), 100u);
    EXPECT_EQ(adam.size(b), 200u);

    AdamState sa(100, 1), sb(200, 2);
    adam.step(a, sa.p.data(), sa.g.data());
    EXPECT_EQ(adam.stepCount(a), 1);
    EXPECT_EQ(adam.stepCount(b), 0);
    // Slot b's buffers untouched.
    for (float x : adam.momentum(b))
        ASSERT_EQ(x, 0.0f);
}

TEST(AdamClass, RewindStepAfterExternalRestore)
{
    Adam adam(defaultConfig(), AdamKernel::Fused);
    const std::size_t slot = adam.addParameter(16);
    AdamState s(16);
    adam.step(slot, s.p.data(), s.g.data());
    adam.rewindStep(slot);
    EXPECT_EQ(adam.stepCount(slot), 0);
}

TEST(AdamClassDeath, RollbackWithoutStepPanics)
{
    Adam adam(defaultConfig(), AdamKernel::Fused);
    const std::size_t slot = adam.addParameter(4);
    AdamState s(4);
    EXPECT_DEATH(adam.rollback(slot, s.p.data(), s.g.data()),
                 "without a prior step");
}

TEST(AdamKernelsDeath, StepNumbersAreOneBased)
{
    AdamState s(4);
    EXPECT_DEATH(adamStepFused(defaultConfig(), 0, s.p.data(), s.m.data(),
                               s.v.data(), s.g.data(), 4),
                 "1-based");
}

struct AdamHyper
{
    float lr;
    float beta1;
    float beta2;
    float wd;
};

class AdamHyperTest : public ::testing::TestWithParam<AdamHyper>
{
};

TEST_P(AdamHyperTest, InverseRoundTripsAcrossHyperparameters)
{
    // The algebraic inverse (the STV rollback) must hold across the
    // whole practical hyperparameter range, not just the defaults.
    const AdamHyper hp = GetParam();
    AdamConfig cfg;
    cfg.lr = hp.lr;
    cfg.beta1 = hp.beta1;
    cfg.beta2 = hp.beta2;
    cfg.weight_decay = hp.wd;

    const std::size_t n = 3000;
    AdamState s(n, 4242);
    const std::vector<float> p0 = s.p;
    // A couple of prior steps so moments are non-trivial.
    adamStepFused(cfg, 1, s.p.data(), s.m.data(), s.v.data(), s.g.data(),
                  n);
    adamStepFused(cfg, 2, s.p.data(), s.m.data(), s.v.data(), s.g.data(),
                  n);
    const std::vector<float> p2 = s.p, m2 = s.m, v2 = s.v;
    adamStepFused(cfg, 3, s.p.data(), s.m.data(), s.v.data(), s.g.data(),
                  n);
    adamStepInverse(cfg, 3, s.p.data(), s.m.data(), s.v.data(),
                    s.g.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(s.p[i], p2[i], 1e-5f + std::fabs(p2[i]) * 1e-5f);
        ASSERT_NEAR(s.m[i], m2[i], 1e-6f + std::fabs(m2[i]) * 1e-5f);
        ASSERT_NEAR(s.v[i], v2[i], 1e-7f + std::fabs(v2[i]) * 1e-5f);
    }
    (void)p0;
}

INSTANTIATE_TEST_SUITE_P(
    Hyperparameters, AdamHyperTest,
    ::testing::Values(AdamHyper{1e-4f, 0.9f, 0.999f, 0.0f},
                      AdamHyper{1e-3f, 0.9f, 0.999f, 0.01f},
                      AdamHyper{1e-2f, 0.8f, 0.99f, 0.1f},
                      AdamHyper{3e-3f, 0.95f, 0.9999f, 0.0f},
                      AdamHyper{5e-2f, 0.5f, 0.9f, 0.05f}));

TEST(AdamKernels, ConvergesOnQuadratic)
{
    // Minimize f(x) = x^2 elementwise: Adam must drive |x| down.
    AdamConfig cfg;
    cfg.lr = 0.05f;
    cfg.weight_decay = 0.0f;
    std::vector<float> p{3.0f, -2.0f}, m(2, 0.0f), v(2, 0.0f), g(2);
    for (std::int64_t step = 1; step <= 500; ++step) {
        g[0] = 2.0f * p[0];
        g[1] = 2.0f * p[1];
        adamStepGrace(cfg, step, p.data(), m.data(), v.data(), g.data(),
                      2);
    }
    EXPECT_LT(std::fabs(p[0]), 0.05f);
    EXPECT_LT(std::fabs(p[1]), 0.05f);
}

} // namespace
} // namespace so::optim
