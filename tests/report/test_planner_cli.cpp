/**
 * @file
 * superoffload_planner CLI contract: a --trace or --explain-html file
 * that cannot be written in full is reported with its path and exits
 * 1, instead of being announced as written; and argv follows the bench
 * Harness's rules, so a misspelt flag, a stray argument, a value on a
 * switch or a malformed --jobs exits 1 naming the token instead of
 * planning something else.
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
