/**
 * @file
 * superoffload_planner CLI contract: a --trace or --explain-html file
 * that cannot be written in full is reported with its path and exits
 * 1, instead of being announced as written; and argv follows the bench
 * Harness's rules, so a misspelt flag, a stray argument, a value on a
 * switch, a malformed --jobs, or a --chips, --batch or --seq (flag or
 * config key) that is not a count the planner can use exits 1 naming
 * the token instead of planning something else.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <sys/wait.h>

#ifdef SO_PLANNER_BIN

namespace {

/** Run the planner, capturing stdout+stderr and the exit code. */
int
runPlanner(const std::string &arguments, std::string &output)
{
    const std::string command =
        std::string(SO_PLANNER_BIN) + " " + arguments + " 2>&1";
    FILE *pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        return -1;
    char buffer[512];
    output.clear();
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr)
        output += buffer;
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(PlannerCli, FailedWritesNameThePathAndExitOne)
{
    const std::string plan = "--model 5B --chips 1 --batch 8 ";
    std::string output;
    EXPECT_EQ(runPlanner(plan + "--trace /dev/full", output), 1)
        << output;
    EXPECT_NE(output.find("cannot write trace to /dev/full"),
              std::string::npos)
        << output;
    EXPECT_EQ(output.find("written"), std::string::npos) << output;

    EXPECT_EQ(runPlanner(plan +
                             "--explain zero-offload "
                             "--explain-html /dev/full",
                         output),
              1)
        << output;
    EXPECT_NE(output.find("cannot write /dev/full"), std::string::npos)
        << output;
    EXPECT_EQ(output.find("written"), std::string::npos) << output;
}

TEST(PlannerCli, MalformedArgvExitsOneNamingTheToken)
{
    const struct
    {
        const char *arguments;
        const char *named;
    } kCases[] = {
        {"--modle 20B --chips 1 --batch 8", "--modle"},
        {"--model 5B --batch 8 stray.json", "stray.json"},
        {"--model 5B --jobs abc", "'abc'"},
        {"--model 5B --jobs -3", "'-3'"},
        {"--model 5B --jobs 1.5", "'1.5'"},
        {"--model 5B --jobs", "--jobs must be a whole number"},
        {"--model 5B --compare out.json", "--compare takes no value"},
        // Counts are whole numbers >= 1 that fit uint32_t, and --chips
        // is one Superchip or an even number of them.
        {"--model 5B --chips abc --batch 8", "--chips must be a whole "
                                             "number >= 1 (got 'abc')"},
        {"--model 5B --chips 0", "--chips must be a whole number"},
        {"--model 5B --chips 3", "--chips must be 1 or an even number"},
        {"--model 5B --chips -2", "'-2'"},
        {"--model 5B --batch 0", "--batch must be a whole number"},
        {"--model 5B --batch -8", "--batch must be a whole number"},
        {"--model 5B --batch 4294967296", "'4294967296'"},
        {"--model 5B --seq 1.5", "--seq must be a whole number"},
        {"--model 5B --seq 0", "--seq must be a whole number"},
        {"--model 5B --seq", "--seq must be a whole number"},
    };
    for (const auto &c : kCases) {
        std::string output;
        EXPECT_EQ(runPlanner(c.arguments, output), 1)
            << c.arguments << ": " << output;
        EXPECT_NE(output.find(c.named), std::string::npos)
            << c.arguments << ": " << output;
        // Rejected before planning: no plan summary was printed.
        EXPECT_EQ(output.find("SuperOffload plan"), std::string::npos)
            << c.arguments << ": " << output;
    }

    // The same keys from a --config file name the key and the token.
    const struct
    {
        const char *line;
        const char *named;
    } kConfigCases[] = {
        {"chips = 3", "config key chips must be 1 or an even number"},
        {"batch = abc", "config key batch must be a whole number >= 1 "
                        "(got 'abc')"},
        {"seq = 0", "config key seq must be a whole number"},
    };
    const std::string config = testing::TempDir() + "planner_counts.conf";
    for (const auto &c : kConfigCases) {
        std::FILE *file = std::fopen(config.c_str(), "w");
        ASSERT_NE(file, nullptr);
        std::fprintf(file, "model = 5B\n%s\n", c.line);
        std::fclose(file);
        std::string output;
        EXPECT_EQ(runPlanner("--config " + config, output), 1)
            << c.line << ": " << output;
        EXPECT_NE(output.find(c.named), std::string::npos)
            << c.line << ": " << output;
    }
    std::remove(config.c_str());
}

TEST(PlannerCli, WholeNumberJobsRun)
{
    for (const char *jobs : {"0", "2"}) {
        std::string output;
        EXPECT_EQ(runPlanner(std::string("--model 1B --chips 1 --batch 8 "
                                         "--compare --jobs ") +
                                 jobs,
                             output),
                  0)
            << jobs << ": " << output;
        EXPECT_NE(output.find("baseline comparison"), std::string::npos)
            << jobs << ": " << output;
    }
}

} // namespace

#endif // SO_PLANNER_BIN
