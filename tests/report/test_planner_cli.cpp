/**
 * @file
 * superoffload_planner CLI contract: a --trace or --explain-html file
 * that cannot be written in full is reported with its path and exits
 * 1, instead of being announced as written; argv and the --config job
 * file are read by one declaration, so a misspelt flag or key, a stray
 * argument, a value on a switch, a malformed --jobs, a --chips, --batch
 * or --seq that is not a count the planner can use, a --binding or
 * --placement outside its words, or a job-file value its kind rejects
 * exits so::kUsageError naming the token instead of planning something
 * else; and a bare --trace writes the default trace file.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include <sys/wait.h>

#include "common/argparse.h"

#ifdef SO_PLANNER_BIN

namespace {

/**
 * Run the planner in @p cwd (the test's own by default), capturing
 * stdout+stderr and the exit code.
 */
int
runPlanner(const std::string &arguments, std::string &output,
           const std::string &cwd = ".")
{
    const std::string command = "cd " + cwd + " && " +
                                std::string(SO_PLANNER_BIN) + " " +
                                arguments + " 2>&1";
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

TEST(PlannerCli, MalformedArgvExitsWithUsageStatusNamingTheToken)
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
        // Words outside the declared ones, which used to plan colocated
        // and auto.
        {"--model 5B --binding remoet",
         "--binding must be one of colocated|remote (got 'remoet')"},
        {"--model 5B --placement flwo",
         "--placement must be one of auto|stationary|flow (got 'flwo')"},
        {"--model 5Q", "unknown model preset '5Q'"},
        {"--model 5B --explain nobody", "unknown baseline 'nobody'"},
    };
    for (const auto &c : kCases) {
        std::string output;
        EXPECT_EQ(runPlanner(c.arguments, output), so::kUsageError)
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
        // A power key that is not a number used to read as 0 W, an
        // unknown key and a malformed line used to be skipped, a
        // misspelt switch word kept the default and a malformed NVMe
        // size removed the tier.
        {"gpu_busy_w = abc",
         "config key gpu_busy_w must be a number (got 'abc')"},
        {"gpu_busy_watts = 300", "unknown config key gpu_busy_watts"},
        {"jobs = 4", "unknown config key jobs"},
        {"stv = flase", "config key stv must be true/yes/on/1 or "
                        "false/no/off/0 (got 'flase')"},
        {"nvme_gb = abc", "config key nvme_gb must be a number"},
        {"binding remote", "malformed config line 'binding remote'"},
    };
    const std::string config = testing::TempDir() + "planner_counts.conf";
    for (const auto &c : kConfigCases) {
        std::FILE *file = std::fopen(config.c_str(), "w");
        ASSERT_NE(file, nullptr);
        std::fprintf(file, "model = 5B\n%s\n", c.line);
        std::fclose(file);
        std::string output;
        EXPECT_EQ(runPlanner("--config " + config, output),
                  so::kUsageError)
            << c.line << ": " << output;
        EXPECT_NE(output.find(c.named), std::string::npos)
            << c.line << ": " << output;
    }
    std::remove(config.c_str());
}

TEST(PlannerCli, BareTraceWritesTheDefaultFile)
{
    const std::filesystem::path dir =
        std::filesystem::path(testing::TempDir()) / "planner_bare_trace";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string output;
    EXPECT_EQ(runPlanner("--model 5B --chips 1 --batch 8 --trace", output,
                         dir.string()),
              0)
        << output;
    EXPECT_NE(output.find("schedule trace written to "
                          "superoffload_trace.json"),
              std::string::npos)
        << output;
    EXPECT_GT(std::filesystem::file_size(dir / "superoffload_trace.json"),
              0u);
    std::filesystem::remove_all(dir);
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
