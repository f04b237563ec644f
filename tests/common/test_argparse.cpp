#include "common/argparse.h"

#include <gtest/gtest.h>

namespace so {
namespace {

ArgParser
parse(std::initializer_list<const char *> args)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, EmptyCommandLine)
{
    const ArgParser args = parse({});
    EXPECT_FALSE(args.has("anything"));
    EXPECT_TRUE(args.positional().empty());
    EXPECT_TRUE(args.keys().empty());
}

TEST(ArgParser, KeyValuePairs)
{
    const ArgParser args = parse({"--model", "13B", "--chips", "4"});
    EXPECT_EQ(args.get("model"), "13B");
    EXPECT_EQ(args.getInt("chips", 0), 4);
}

TEST(ArgParser, EqualsSyntax)
{
    const ArgParser args = parse({"--seq=2048", "--ratio=1.5"});
    EXPECT_EQ(args.getInt("seq", 0), 2048);
    EXPECT_EQ(args.get("ratio"), "1.5");
}

TEST(ArgParser, BareFlags)
{
    const ArgParser args = parse({"--compare", "--no-stv"});
    EXPECT_TRUE(args.has("compare"));
    EXPECT_TRUE(args.has("no-stv"));
    EXPECT_EQ(args.get("compare"), "");
}

TEST(ArgParser, FlagFollowedByFlagIsNotConsumed)
{
    const ArgParser args = parse({"--compare", "--model", "5B"});
    EXPECT_TRUE(args.has("compare"));
    EXPECT_EQ(args.get("compare"), "");
    EXPECT_EQ(args.get("model"), "5B");
}

TEST(ArgParser, PositionalArguments)
{
    const ArgParser args = parse({"input.txt", "--opt", "x", "output"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.txt");
    EXPECT_EQ(args.positional()[1], "output");
}

TEST(ArgParser, DefaultsWhenAbsent)
{
    const ArgParser args = parse({});
    EXPECT_EQ(args.get("missing", "def"), "def");
    EXPECT_EQ(args.getInt("missing", 7), 7);
}

TEST(ArgParser, InvalidNumbersFallBack)
{
    const ArgParser args = parse({"--chips", "four", "--ratio", "x.y"});
    EXPECT_EQ(args.getInt("chips", -1), -1);
}

TEST(ArgParser, LastOccurrenceWins)
{
    const ArgParser args = parse({"--model", "5B", "--model", "13B"});
    EXPECT_EQ(args.get("model"), "13B");
}

TEST(ArgParser, KeysEnumeration)
{
    const ArgParser args = parse({"--a", "1", "--b"});
    const auto keys = args.keys();
    EXPECT_EQ(keys.size(), 2u);
}

TEST(ArgParser, MisuseNamesTheFirstBrokenToken)
{
    constexpr const char *kSwitches[] = {"compare"};
    constexpr const char *kValued[] = {"model", "jobs"};
    EXPECT_EQ(parse({"--model", "5B", "--compare"})
                  .misuse(kSwitches, kValued),
              "");
    EXPECT_EQ(parse({"--modle", "5B"}).misuse(kSwitches, kValued),
              "unknown flag --modle");
    EXPECT_EQ(parse({"--model", "5B", "out.json"})
                  .misuse(kSwitches, kValued),
              "unexpected argument out.json (every option is a --flag)");
    EXPECT_EQ(parse({"--compare", "out.json"}).misuse(kSwitches, kValued),
              "--compare takes no value (got out.json)");
    // Unknown flags are reported before stray arguments.
    EXPECT_EQ(parse({"stray", "--bogus"}).misuse(kSwitches, kValued),
              "unknown flag --bogus");
}

TEST(ArgParser, NegativeNumbers)
{
    const ArgParser args = parse({"--delta=-5"});
    EXPECT_EQ(args.getInt("delta", 0), -5);
}

} // namespace
} // namespace so
