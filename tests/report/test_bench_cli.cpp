/**
 * @file
 * bench_sim_kernel CLI contract (satellite of the observability work):
 * the --max-tasks skip notice goes to stderr so stdout stays a clean
 * scrapeable table, --json writes a record that parses cleanly even
 * when sizes were skipped and fails when the record cannot be written,
 * --trace-dir streams the full artifact set (Chrome trace, profile
 * document, bundle shards) at the detail the graph size picks, and an
 * unknown flag or a --max-tasks that is not a whole number >= 1 is a
 * usage error (so::kUsageError, naming the flag or token).
 */
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include "common/argparse.h"
#include "common/json.h"

#ifdef SO_SIM_KERNEL_BIN

namespace so {
namespace {

namespace fs = std::filesystem;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Run the bench binary, routing stdout/stderr to separate files. */
int
runBench(const std::string &arguments, const fs::path &out_path,
         const fs::path &err_path)
{
    const std::string command = std::string(SO_SIM_KERNEL_BIN) + " " +
                                arguments + " >" + out_path.string() +
                                " 2>" + err_path.string();
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(BenchSimKernelCli, SkipNoticeStaysOffStdoutAndJsonParses)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "bench_cli_skip";
    fs::create_directories(dir);
    const fs::path json = dir / "out.json";

    ASSERT_EQ(runBench("--max-tasks 2000 --json " + json.string(),
                       dir / "stdout.txt", dir / "stderr.txt"),
              0);

    // Every capped size is announced once, on stderr only.
    const std::string err = slurp(dir / "stderr.txt");
    EXPECT_NE(err.find("(skipped: --max-tasks 2000)"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("10000000"), std::string::npos);
    const std::string out = slurp(dir / "stdout.txt");
    EXPECT_EQ(out.find("skipped"), std::string::npos) << out;

    // The record parses cleanly and carries only the measured sizes.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(slurp(json), doc, &error)) << error;
    EXPECT_EQ(doc.at("bench").text(), "sim_kernel");
    const auto &sizes = doc.at("sizes").items();
    ASSERT_EQ(sizes.size(), 1u);
    EXPECT_LE(sizes[0].at("tasks").number(), 2000.0);
    EXPECT_GT(sizes[0].at("total_tasks_per_s").number(), 0.0);

    // A record that cannot be written in full fails the run.
    EXPECT_EQ(runBench("--max-tasks 1000 --json /dev/full",
                       dir / "stdout.txt", dir / "stderr.txt"),
              1);
    EXPECT_NE(slurp(dir / "stderr.txt").find("cannot write /dev/full"),
              std::string::npos);
    EXPECT_EQ(slurp(dir / "stdout.txt").find("wrote"), std::string::npos);

    fs::remove_all(dir);
}

TEST(BenchSimKernelCli, TraceDirStreamsTheArtifactTriple)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "bench_cli_trace";
    fs::create_directories(dir);
    const fs::path traces = dir / "traces";

    ASSERT_EQ(runBench("--max-tasks 1000 --trace-dir " + traces.string(),
                       dir / "stdout.txt", dir / "stderr.txt"),
              0);
    EXPECT_EQ(slurp(dir / "stdout.txt").find("summary detail"),
              std::string::npos);

    // 1000 tasks is below the Summary threshold: full detail.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(
        slurp(traces / "sim_kernel_1000.profile.json"), doc, &error))
        << error;
    EXPECT_EQ(doc.at("detail").text(), "full");

    ASSERT_TRUE(JsonValue::parse(
        slurp(traces / "sim_kernel_1000.trace.json"), doc, &error))
        << error;
    EXPECT_FALSE(doc.at("traceEvents").items().empty());

    std::ifstream shards(traces / "sim_kernel_1000.bundle.jsonl");
    std::string header;
    ASSERT_TRUE(static_cast<bool>(std::getline(shards, header)));
    ASSERT_TRUE(JsonValue::parse(header, doc, &error)) << error;
    EXPECT_EQ(doc.at("kind").text(), "bundle_shard_header");

    fs::remove_all(dir);
}

TEST(BenchSimKernelCli, BadDetailIsAUsageError)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "bench_cli_usage";
    fs::create_directories(dir);
    // The profile's detail follows the graph size, so --detail is an
    // unknown flag like any other; the baseline check lives in
    // `so-report check`. A --max-tasks that is not a whole number >= 1
    // would cap the run at the wrong size or lift the cap. Each case
    // leads with a small cap, so an accepted argument still ends fast.
    const struct
    {
        const char *arguments;
        const char *named;
    } kCases[] = {
        {"--detail sideways", "unknown flag --detail"},
        {"--baseline x", "unknown flag --baseline"},
        {"--tolerance 0.5", "unknown flag --tolerance"},
        {"--max-tasks 1e5", "--max-tasks must be a whole number >= 1 "
                            "(got '1e5')"},
        {"--max-tasks 12abc", "(got '12abc')"},
    };
    for (const auto &c : kCases) {
        EXPECT_EQ(runBench(std::string("--max-tasks 1000 ") + c.arguments,
                           dir / "stdout.txt", dir / "stderr.txt"),
                  kUsageError)
            << c.arguments;
        EXPECT_NE(slurp(dir / "stderr.txt").find(c.named),
                  std::string::npos)
            << c.arguments;
    }
    fs::remove_all(dir);
}

} // namespace
} // namespace so

#endif // SO_SIM_KERNEL_BIN
