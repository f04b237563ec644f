#include "model/config.h"

#include <gtest/gtest.h>

#include <ostream>

namespace so::model {
namespace {

TEST(ModelConfig, ParameterCountFormula)
{
    const ModelConfig cfg = makeConfig("test", 10, 1024);
    EXPECT_DOUBLE_EQ(cfg.matmulParams(), 12.0 * 10 * 1024 * 1024);
    EXPECT_DOUBLE_EQ(cfg.embeddingParams(), 51200.0 * 1024);
    EXPECT_DOUBLE_EQ(cfg.params(),
                     cfg.matmulParams() + cfg.embeddingParams());
    EXPECT_DOUBLE_EQ(cfg.paramsPerLayer(), 12.0 * 1024 * 1024);
}

TEST(ModelConfig, HeadsDerivedFromHidden)
{
    EXPECT_EQ(makeConfig("a", 2, 2048).heads, 16u);
    EXPECT_EQ(makeConfig("b", 2, 8192).heads, 64u);
}

TEST(ModelConfig, SummaryMentionsDimensions)
{
    const std::string s = modelPreset("5B").summary();
    EXPECT_NE(s.find("44L"), std::string::npos);
    EXPECT_NE(s.find("3072h"), std::string::npos);
}

struct PresetSize
{
    const char *name;
    double billions;
};

// Print the preset name, so the parameter (and the test name that
// gtest_discover_tests derives from it) is "1B" rather than a byte dump
// holding the string literal's address, which changes with every run.
void PrintTo(const PresetSize &p, std::ostream *os)
{
    *os << p.name;
}

class PresetSizeTest : public ::testing::TestWithParam<PresetSize>
{
};

TEST_P(PresetSizeTest, ParameterCountNearNominal)
{
    // Appendix A configurations should land within 20% of their
    // nominal sizes (the paper rounds aggressively).
    const ModelConfig cfg = modelPreset(GetParam().name);
    const double nominal = GetParam().billions * 1e9;
    EXPECT_NEAR(cfg.params(), nominal, nominal * 0.20)
        << cfg.summary();
}

INSTANTIATE_TEST_SUITE_P(
    AppendixA, PresetSizeTest,
    ::testing::Values(PresetSize{"1B", 1.0}, PresetSize{"2B", 2.0},
                      PresetSize{"3B", 3.0}, PresetSize{"4B", 4.0},
                      PresetSize{"5B", 5.0}, PresetSize{"6B", 6.0},
                      PresetSize{"8B", 8.0}, PresetSize{"10B", 10.0},
                      PresetSize{"11B", 11.0}, PresetSize{"12B", 12.0},
                      PresetSize{"13B", 13.0}, PresetSize{"15B", 15.0},
                      PresetSize{"20B", 20.0}, PresetSize{"25B", 25.0},
                      PresetSize{"30B", 30.0}, PresetSize{"50B", 50.0},
                      PresetSize{"60B", 60.0}, PresetSize{"70B", 70.0},
                      PresetSize{"80B", 80.0}, PresetSize{"150B", 150.0},
                      PresetSize{"175B", 175.0},
                      PresetSize{"200B", 200.0}));

TEST(ModelPresets, MatchAppendixADimensions)
{
    // Spot-check Table 4 rows.
    EXPECT_EQ(modelPreset("1B").layers, 20u);
    EXPECT_EQ(modelPreset("1B").hidden, 2048u);
    EXPECT_EQ(modelPreset("5B").layers, 44u);
    EXPECT_EQ(modelPreset("5B").hidden, 3072u);
    EXPECT_EQ(modelPreset("25B").layers, 30u);
    EXPECT_EQ(modelPreset("25B").hidden, 8192u);
    EXPECT_EQ(modelPreset("200B").layers, 60u);
    EXPECT_EQ(modelPreset("200B").hidden, 16384u);
}

TEST(ModelPresets, ListIsSortedAscendingInSize)
{
    const auto presets = modelPresets();
    ASSERT_GT(presets.size(), 10u);
    for (std::size_t i = 1; i < presets.size(); ++i)
        EXPECT_LT(presets[i - 1].params(), presets[i].params());
}

TEST(ModelPresets, HasModelPreset)
{
    EXPECT_TRUE(hasModelPreset("13B"));
    EXPECT_FALSE(hasModelPreset("13.5B"));
}

TEST(ModelPresetsDeath, UnknownNameIsFatal)
{
    EXPECT_EXIT(modelPreset("999B"), ::testing::ExitedWithCode(1),
                "unknown model preset");
}

TEST(ModelConfigDeath, HiddenMustBeMultipleOf128)
{
    EXPECT_DEATH(makeConfig("bad", 2, 100), "multiple of 128");
}

} // namespace
} // namespace so::model
