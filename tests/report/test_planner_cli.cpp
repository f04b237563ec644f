/**
 * @file
 * superoffload_planner CLI contract: a --trace or --explain-html file
 * that cannot be written in full is reported with its path and exits
 * 1, instead of being announced as written.
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

} // namespace

#endif // SO_PLANNER_BIN
