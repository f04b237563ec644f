#include "common/argparse.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

namespace so {
namespace {

/** A declaration using every kind, as the binaries spell theirs. */
std::vector<Flag>
declaration()
{
    return {
        {.name = "model"},
        {.name = "chips", .kind = ArgKind::Count1,
         .max = std::numeric_limits<std::uint32_t>::max()},
        {.name = "jobs", .kind = ArgKind::Count0},
        {.name = "ratio", .kind = ArgKind::Number},
        {.name = "rank", .kind = ArgKind::Word,
         .words = {"duration", "slack"}},
        {.name = "json", .bare = "BENCH_x.json"},
        {.name = "compare", .kind = ArgKind::Switch},
        {.name = "no-stv", .kind = ArgKind::Switch},
    };
}

ArgParser
parse(std::initializer_list<const char *> args,
      std::size_t max_positional = 0)
{
    std::vector<const char *> argv{"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return ArgParser(static_cast<int>(argv.size()), argv.data(),
                     declaration(), max_positional);
}

TEST(ArgParser, EmptyCommandLine)
{
    const ArgParser args = parse({});
    EXPECT_EQ(args.error(), "");
    EXPECT_FALSE(args.has("model"));
    EXPECT_TRUE(args.positional().empty());
}

TEST(ArgParser, KeyValuePairs)
{
    const ArgParser args = parse({"--model", "13B", "--chips", "4"});
    EXPECT_EQ(args.error(), "");
    EXPECT_EQ(args.get("model"), "13B");
    EXPECT_EQ(args.count("chips", 0), 4u);
}

TEST(ArgParser, EqualsSyntax)
{
    const ArgParser args = parse({"--chips=2048", "--ratio=1.5"});
    EXPECT_EQ(args.error(), "");
    EXPECT_EQ(args.count("chips", 0), 2048u);
    EXPECT_EQ(args.get("ratio"), "1.5");
    EXPECT_EQ(args.number("ratio", 0.0), 1.5);
}

TEST(ArgParser, BareFlags)
{
    const ArgParser args = parse({"--compare", "--no-stv"});
    EXPECT_EQ(args.error(), "");
    EXPECT_TRUE(args.has("compare"));
    EXPECT_TRUE(args.has("no-stv"));
    EXPECT_TRUE(args.on("compare", false));
    EXPECT_EQ(args.get("compare"), "");
}

TEST(ArgParser, FlagFollowedByFlagIsNotConsumed)
{
    const ArgParser args = parse({"--compare", "--model", "5B"});
    EXPECT_EQ(args.error(), "");
    EXPECT_TRUE(args.has("compare"));
    EXPECT_EQ(args.get("compare"), "");
    EXPECT_EQ(args.get("model"), "5B");
}

TEST(ArgParser, SwitchesNeverTakeTheNextToken)
{
    // `so-report query --json a b` reads both inputs.
    const ArgParser args = parse({"--compare", "a", "b"}, 2);
    EXPECT_EQ(args.error(), "");
    EXPECT_TRUE(args.has("compare"));
    EXPECT_EQ(args.positional(), (std::vector<std::string>{"a", "b"}));
}

TEST(ArgParser, BareValuedFlagsTakeTheirDeclaredValue)
{
    // Given bare, at the end, before another flag, or as `--json=`.
    for (const ArgParser &args :
         {parse({"--json"}), parse({"--json", "--compare"}),
          parse({"--json="})}) {
        EXPECT_EQ(args.error(), "");
        EXPECT_EQ(args.get("json"), "BENCH_x.json");
    }
    EXPECT_EQ(parse({"--json", "out.json"}).get("json"), "out.json");
    // A flag declared without a bare value needs one.
    EXPECT_EQ(parse({"--model"}).error(),
              "--model must be non-empty text (got '')");
}

TEST(ArgParser, PositionalArguments)
{
    const ArgParser args =
        parse({"input.txt", "--model", "x", "output"}, 2);
    EXPECT_EQ(args.error(), "");
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.txt");
    EXPECT_EQ(args.positional()[1], "output");
}

TEST(ArgParser, DefaultsWhenAbsent)
{
    const ArgParser args = parse({});
    EXPECT_EQ(args.get("model", "def"), "def");
    EXPECT_EQ(args.count("chips", 7), 7u);
    EXPECT_EQ(args.number("ratio", 2.5), 2.5);
    EXPECT_FALSE(args.on("compare", false));
    EXPECT_TRUE(args.all("model").empty());
}

TEST(ArgParser, MalformedValuesNameTheFlagAndToken)
{
    const struct
    {
        std::initializer_list<const char *> args;
        const char *error;
    } kCases[] = {
        {{"--chips", "four"}, "--chips must be a whole number >= 1 (got 'four')"},
        {{"--chips", "0"}, "--chips must be a whole number >= 1 (got '0')"},
        {{"--chips", "1.5"}, "--chips must be a whole number >= 1 (got '1.5')"},
        {{"--chips", "-2"}, "--chips must be a whole number >= 1 (got '-2')"},
        {{"--chips"}, "--chips must be a whole number >= 1 (got '')"},
        // Read into the declared width: 2^32 does not fit a uint32_t.
        {{"--chips", "4294967296"},
         "--chips must be a whole number >= 1 (got '4294967296')"},
        {{"--jobs", "-3"}, "--jobs must be a whole number >= 0 (got '-3')"},
        {{"--jobs", "18446744073709551616"},
         "--jobs must be a whole number >= 0 (got "
         "'18446744073709551616')"},
        {{"--ratio", "x.y"}, "--ratio must be a number (got 'x.y')"},
        {{"--ratio", "nan"}, "--ratio must be a number (got 'nan')"},
        {{"--ratio="}, "--ratio must be a number (got '')"},
        {{"--rank", "sideways"},
         "--rank must be one of duration|slack (got 'sideways')"},
    };
    for (const auto &c : kCases)
        EXPECT_EQ(parse(c.args).error(), c.error) << c.error;
    EXPECT_EQ(parse({"--chips", "4294967295"}).count("chips", 0),
              4294967295u);
    EXPECT_EQ(parse({"--jobs", "0"}).count("jobs", 1), 0u);
    EXPECT_TRUE(std::isinf(parse({"--ratio", "inf"}).number("ratio", 0)));
    EXPECT_EQ(parse({"--rank", "slack"}).get("rank"), "slack");
}

TEST(ArgParser, LastOccurrenceWins)
{
    const ArgParser args = parse({"--model", "5B", "--model", "13B"});
    EXPECT_EQ(args.get("model"), "13B");
}

TEST(ArgParser, RepeatedFlagKeepsEveryValueInOrder)
{
    const ArgParser args = parse({"--model", "5B", "--model=13B"});
    EXPECT_EQ(args.all("model"), (std::vector<std::string>{"5B", "13B"}));
}

TEST(ArgParser, MisuseNamesTheFirstBrokenToken)
{
    EXPECT_EQ(parse({"--model", "5B", "--compare"}).error(), "");
    EXPECT_EQ(parse({"--modle", "5B"}).error(), "unknown flag --modle");
    EXPECT_EQ(parse({"--model", "5B", "out.json"}).error(),
              "unexpected argument out.json");
    EXPECT_EQ(parse({"a", "b"}, 1).error(), "unexpected argument b");
    // A stray token right after a switch reads as the value it cannot
    // take, and so does `--switch=value`.
    EXPECT_EQ(parse({"--compare", "out.json"}).error(),
              "--compare takes no value (got out.json)");
    EXPECT_EQ(parse({"--compare=yes"}).error(),
              "--compare takes no value (got yes)");
    // The first broken token in argv order is the one named.
    EXPECT_EQ(parse({"stray", "--bogus"}).error(),
              "unexpected argument stray");
    EXPECT_EQ(parse({"--jobs", "x", "--bogus"}).error(),
              "--jobs must be a whole number >= 0 (got 'x')");
}

TEST(ArgParser, NegativeNumbers)
{
    // A valued flag takes a next token that starts with one dash.
    const ArgParser args = parse({"--ratio", "-1"});
    EXPECT_EQ(args.error(), "");
    EXPECT_EQ(args.number("ratio", 0.0), -1.0);
    EXPECT_EQ(parse({"--ratio", "-inf"}).number("ratio", 0.0),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(parse({"--ratio=-5"}).number("ratio", 0.0), -5.0);
}

TEST(ArgParser, NumberRangesNameTheRangeANumberBreaks)
{
    using enum NumberRange;
    const struct
    {
        NumberRange range;
        const char *value;
        const char *error; // "" when admitted
    } kCases[] = {
        {Any, "-inf", ""},
        {Finite, "-1e300", ""},
        {Finite, "-inf", "--w must be a finite number (got '-inf')"},
        {NonNegative, "0", ""},
        {NonNegative, "-0.5",
         "--w must be a finite number >= 0 (got '-0.5')"},
        {NonNegative, "inf", "--w must be a finite number >= 0 (got 'inf')"},
        {NonNegative, "1e-9", ""},
        {Positive, "1e-9", ""},
        {Positive, "0", "--w must be a finite number > 0 (got '0')"},
        {Positive, "-5", "--w must be a finite number > 0 (got '-5')"},
        {Positive, "1e999", "--w must be a finite number > 0 (got '1e999')"},
        // What is not a number at all is named as before, in any range.
        {Positive, "abc", "--w must be a number (got 'abc')"},
        {NonNegative, "nan", "--w must be a number (got 'nan')"},
    };
    for (const auto &c : kCases) {
        const char *argv[] = {"prog", "--w", c.value};
        const ArgParser args(
            3, argv, {{.name = "w", .kind = ArgKind::Number,
                       .range = c.range}});
        EXPECT_EQ(args.error(), c.error) << c.value;
    }
}

TEST(ArgParser, ConfigKeysGoThroughTheSameKinds)
{
    const std::vector<Flag> flags = {
        {.name = "model", .scope = ArgScope::Both},
        {.name = "batch", .kind = ArgKind::Count1, .scope = ArgScope::Both},
        {.name = "jobs", .kind = ArgKind::Count0},
        {.name = "gpu_busy_w", .kind = ArgKind::Number,
         .scope = ArgScope::Config},
        {.name = "stv", .kind = ArgKind::Switch, .scope = ArgScope::Config},
    };
    const char *argv[] = {"prog", "--batch", "16"};
    auto read = [&](const std::string &text) {
        ArgParser args(3, argv, flags);
        args.readConfig(ConfigFile::parse(text));
        return args;
    };
    // The command line wins over the file; source() names where a value
    // came from.
    const ArgParser args = read("model = 5B\nbatch = 8\ngpu_busy_w = 2e2\n");
    EXPECT_EQ(args.error(), "");
    EXPECT_EQ(args.get("model"), "5B");
    EXPECT_EQ(args.count("batch", 0), 16u);
    EXPECT_EQ(args.number("gpu_busy_w", 0.0), 200.0);
    EXPECT_EQ(args.source("batch"), "--batch");
    EXPECT_EQ(args.source("model"), "config key model");

    const struct
    {
        const char *text;
        const char *error;
    } kCases[] = {
        {"gpu_busy_w = abc",
         "config key gpu_busy_w must be a number (got 'abc')"},
        {"batch = 0", "config key batch must be a whole number >= 1 "
                      "(got '0')"},
        {"stv = flase", "config key stv must be true/yes/on/1 or "
                        "false/no/off/0 (got 'flase')"},
        {"model =", "config key model must be non-empty text (got '')"},
        // Only declared job-file keys: --jobs is a flag, not a key.
        {"jobs = 4", "unknown config key jobs"},
        {"bogus = 1", "unknown config key bogus"},
        {"model = 5B\nno equals here",
         "malformed config line 'no equals here'"},
    };
    for (const auto &c : kCases)
        EXPECT_EQ(read(c.text).error(), c.error) << c.text;
    // A config-only key is no flag.
    const char *stv_flag[] = {"prog", "--stv"};
    EXPECT_EQ(ArgParser(2, stv_flag, flags).error(), "unknown flag --stv");
}

} // namespace
} // namespace so
