#include "common/config_file.h"

#include <gtest/gtest.h>

#include "common/argparse.h"

#include <cstdio>
#include <fstream>

namespace so {
namespace {

TEST(ConfigFile, ParsesKeyValuePairs)
{
    const ConfigFile cfg = ConfigFile::parse(
        "model = 13B\n"
        "chips=4\n"
        "  seq   =   2048  \n");
    EXPECT_EQ(cfg.values(),
              (std::map<std::string, std::string>{
                  {"model", "13B"}, {"chips", "4"}, {"seq", "2048"}}));
}

TEST(ConfigFile, IgnoresCommentsAndBlankLines)
{
    const ConfigFile cfg = ConfigFile::parse(
        "# a comment\n"
        "\n"
        "key = value  # trailing comment\n"
        "; semicolon comment\n");
    EXPECT_EQ(cfg.values(),
              (std::map<std::string, std::string>{{"key", "value"}}));
}

TEST(ConfigFile, CollectsMalformedLines)
{
    const ConfigFile cfg = ConfigFile::parse(
        "good = 1\n"
        "this line has no equals\n"
        "= missing key\n");
    EXPECT_EQ(cfg.values().size(), 1u);
    EXPECT_EQ(cfg.malformedLines(),
              (std::vector<std::string>{"this line has no equals",
                                        "= missing key"}));
}

TEST(ConfigFile, LaterKeysOverride)
{
    const ConfigFile cfg = ConfigFile::parse("x = 1\nx = 2\n");
    EXPECT_EQ(cfg.values().at("x"), "2");
}

/** Read @p text as a job file by a declaration of @p kind keys. */
ArgParser
readKeys(const std::string &text, ArgKind kind,
         std::initializer_list<const char *> keys)
{
    std::vector<Flag> flags;
    for (const char *key : keys)
        flags.push_back(
            {.name = key, .kind = kind, .scope = ArgScope::Config});
    const char *argv[] = {"prog"};
    ArgParser args(1, argv, flags);
    args.readConfig(ConfigFile::parse(text));
    return args;
}

TEST(ConfigFile, BooleanSpellings)
{
    const ArgParser args =
        readKeys("a = true\nb = YES\nc = off\nd = 0\ne = On\nf = no\n",
                 ArgKind::Switch, {"a", "b", "c", "d", "e", "f", "absent"});
    EXPECT_EQ(args.error(), "");
    EXPECT_TRUE(args.on("a", false));
    EXPECT_TRUE(args.on("b", false));
    EXPECT_FALSE(args.on("c", true));
    EXPECT_FALSE(args.on("d", true));
    EXPECT_TRUE(args.on("e", false));
    EXPECT_FALSE(args.on("f", true));
    EXPECT_FALSE(args.on("absent", false));
    EXPECT_TRUE(args.on("absent", true));
    // Anything else is an error naming the key, not the fallback.
    EXPECT_EQ(readKeys("e = maybe\n", ArgKind::Switch, {"e"}).error(),
              "config key e must be true/yes/on/1 or false/no/off/0 (got "
              "'maybe')");
}

TEST(ConfigFile, DoubleValues)
{
    const ArgParser args = readKeys("lr = 2e-3\nneg = -0.5\n",
                                    ArgKind::Number, {"lr", "neg"});
    EXPECT_EQ(args.error(), "");
    EXPECT_DOUBLE_EQ(args.number("lr", 0.0), 2e-3);
    EXPECT_DOUBLE_EQ(args.number("neg", 0.0), -0.5);
    EXPECT_EQ(readKeys("lr = not-a-number\n", ArgKind::Number, {"lr"})
                  .error(),
              "config key lr must be a number (got 'not-a-number')");
}

TEST(ConfigFile, LoadFromDisk)
{
    const std::string path = ::testing::TempDir() + "/so_config_test.ini";
    {
        std::ofstream out(path);
        out << "model = 5B\nbatch = 8\n";
    }
    bool ok = false;
    const ConfigFile cfg = ConfigFile::load(path, ok);
    EXPECT_TRUE(ok);
    EXPECT_EQ(cfg.values().at("model"), "5B");
    std::remove(path.c_str());
}

TEST(ConfigFile, LoadMissingFileReportsFailure)
{
    bool ok = true;
    const ConfigFile cfg =
        ConfigFile::load("/nonexistent/so_config.ini", ok);
    EXPECT_FALSE(ok);
    EXPECT_TRUE(cfg.values().empty());
}

} // namespace
} // namespace so
