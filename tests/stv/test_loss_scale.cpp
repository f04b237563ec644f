/**
 * @file
 * Pins the dynamic loss-scale rule on every trainer that owns its
 * scale: an overflowed step halves the scale (floor 1) and restarts the
 * good-step count; scale_growth_interval good steps in a row double it
 * (cap 2^24). After every step the trainer's lossScale() must equal
 * the rule applied to that step's StepStats::overflowed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "data/synthetic_corpus.h"
#include "nn/mlp_lm.h"
#include "stv/data_parallel_trainer.h"
#include "stv/offload_trainer.h"
#include "stv/trainer.h"

namespace so::stv {
namespace {

constexpr float kScaleCap = 16777216.0f; // 2^24
constexpr int kSteps = 40;
constexpr std::size_t kBatch = 16;

nn::MlpLmConfig
modelConfig()
{
    nn::MlpLmConfig cfg;
    cfg.vocab = 64;
    cfg.embed = 16;
    cfg.hidden = 32;
    return cfg;
}

struct ScaleCase
{
    const char *name;
    bool fp16_grads;
    float loss_scale;
};

// Print the case name, so the parameter (and the test name that
// gtest_discover_tests derives from it) is "fp16" rather than a byte dump
// holding the string literal's address, which changes with every run.
void
PrintTo(const ScaleCase &c, std::ostream *os)
{
    *os << c.name;
}

TrainerConfig
trainerConfig(const ScaleCase &c)
{
    TrainerConfig cfg;
    cfg.adam.lr = 2e-3f;
    cfg.loss_scale = c.loss_scale;
    cfg.fp16_grads = c.fp16_grads;
    cfg.scale_growth_interval = 3;
    cfg.clip_norm = 5.0;
    cfg.buckets = 6;
    return cfg;
}

struct Tally
{
    int overflows = 0;
    int growths = 0;
    bool capped = false;
};

/**
 * Run kSteps steps of @p trainer over kBatch-pair batches, passing
 * @p count to step(), and check lossScale() after each step against
 * the test-side statement of the rule.
 */
template <typename Trainer>
Tally
followRule(const char *name, Trainer &trainer, const TrainerConfig &cfg,
           std::size_t count)
{
    data::CorpusConfig data_cfg;
    data_cfg.vocab = 64;
    data_cfg.branching = 8;
    data_cfg.seed = 41;
    data::SyntheticCorpus data(data_cfg);
    std::vector<std::uint32_t> in(kBatch), tgt(kBatch);

    Tally tally;
    float expected = cfg.loss_scale;
    std::uint32_t good_steps = 0;
    for (int s = 0; s < kSteps; ++s) {
        data.nextBatch(in.data(), tgt.data(), kBatch);
        const StepStats stats = trainer.step(in.data(), tgt.data(), count);
        const float before = expected;
        if (stats.overflowed) {
            ++tally.overflows;
            expected = std::max(1.0f, expected * 0.5f);
            good_steps = 0;
        } else if (++good_steps >= cfg.scale_growth_interval) {
            expected = std::min(kScaleCap, expected * 2.0f);
            good_steps = 0;
        }
        tally.growths += expected > before;
        EXPECT_EQ(trainer.lossScale(), expected) << name << " step " << s;
    }
    tally.capped = expected == kScaleCap;
    return tally;
}

class LossScaleRuleTest : public ::testing::TestWithParam<ScaleCase>
{
};

TEST_P(LossScaleRuleTest, EveryTrainerAppliesTheSameRule)
{
    const TrainerConfig cfg = trainerConfig(GetParam());

    nn::MlpLm sync_model(modelConfig(), 3);
    SyncTrainer sync(sync_model, cfg);
    const Tally sync_tally = followRule("SyncTrainer", sync, cfg, kBatch);

    nn::MlpLm stv_model(modelConfig(), 3);
    StvTrainer stv(stv_model, cfg);
    const Tally stv_tally = followRule("StvTrainer", stv, cfg, kBatch);

    nn::MlpLm offload_model(modelConfig(), 3);
    OffloadTrainer offload(offload_model, cfg);
    const Tally offload_tally =
        followRule("OffloadTrainer", offload, cfg, kBatch);

    // Two ranks of kBatch / 2 pairs each.
    DataParallelTrainer dp(modelConfig(), 2, cfg, 3);
    const Tally dp_tally =
        followRule("DataParallelTrainer", dp, cfg, kBatch / 2);

    if (GetParam().fp16_grads) {
        // Starting far above what binary16 holds: every trainer
        // overflows down to a workable scale, then probes upwards.
        for (const Tally &t :
             {sync_tally, stv_tally, offload_tally, dp_tally}) {
            EXPECT_GT(t.overflows, 0);
            EXPECT_GT(t.growths, 0);
        }
    } else {
        // fp32 gradients never overflow here, so the scale climbs into
        // the 2^24 cap and stays there. The offload trainer's device
        // gradients are binary16 whatever fp16_grads says, so it keeps
        // overflowing instead.
        EXPECT_TRUE(sync_tally.capped);
        EXPECT_TRUE(stv_tally.capped);
        EXPECT_TRUE(dp_tally.capped);
        EXPECT_GT(offload_tally.overflows, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grads, LossScaleRuleTest,
    ::testing::Values(ScaleCase{"fp16", true, 1.0e6f},
                      ScaleCase{"fp32", false, 4194304.0f /* 2^22 */}),
    [](const ::testing::TestParamInfo<ScaleCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace so::stv
