/**
 * @file
 * Harness guard-rail tests: --trace-dir pointing at an existing
 * regular file dies fast with a clear message (before any sweep work),
 * a valid --trace-dir is created up front, a flag the Harness does not
 * know (a retired one or a typo), a stray argument, a value given to
 * --progress or --profile and a --jobs that is not a whole number >= 0
 * exit so::kUsageError at parse time naming the flag or token, a bare
 * --json, --trace-dir or --self-trace takes its declared default, a
 * --json record or
 * --self-trace export that cannot be written in full is fatal, and a record the Harness writes is one `so-report
 * check` guards: a vanished baseline metric lands in the verdict while
 * --warn-only keeps the exit code 0, and a record passes against itself.
 */
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "common/argparse.h"
#include "common/json.h"
#include "common/trace.h"

namespace so::bench {
namespace {

namespace fs = std::filesystem;

fs::path
tempPath(const std::string &name)
{
    return fs::temp_directory_path() / name;
}

Harness
makeHarness(const std::vector<std::string> &extra_args)
{
    static std::vector<std::string> storage;
    storage.assign({"bench_test"});
    storage.insert(storage.end(), extra_args.begin(),
                   extra_args.end());
    std::vector<const char *> argv;
    for (const std::string &arg : storage)
        argv.push_back(arg.c_str());
    return Harness(static_cast<int>(argv.size()), argv.data(),
                   "Guard Test", "harness guard rails", "n/a");
}

TEST(HarnessGuard, TraceDirOverRegularFileDiesFast)
{
    const fs::path file = tempPath("so_trace_dir_collision");
    fs::remove_all(file);
    std::ofstream(file.string()) << "not a directory\n";
    ASSERT_TRUE(fs::is_regular_file(file));

    EXPECT_EXIT(makeHarness({"--trace-dir", file.string()}),
                ::testing::ExitedWithCode(1), "not a directory");
    fs::remove_all(file);
}

TEST(HarnessGuard, TraceDirIsCreatedUpFront)
{
    const fs::path dir = tempPath("so_trace_dir_ok/nested");
    fs::remove_all(tempPath("so_trace_dir_ok"));
    {
        const Harness harness =
            makeHarness({"--trace-dir", dir.string()});
        EXPECT_TRUE(harness.profiling()); // --trace-dir implies it.
        EXPECT_TRUE(fs::is_directory(dir));
    }
    fs::remove_all(tempPath("so_trace_dir_ok"));
}

TEST(HarnessGuard, RemovedFlagsDieFast)
{
    // The regression check and the Explorer pages live in so-report;
    // a bench given their old flags, or a typo, must not silently
    // ignore them.
    const std::vector<std::vector<std::string>> cases = {
        {"--baseline", "f"}, {"--tolerance", "0.5"}, {"--html", "d"},
        {"--jsn"}};
    for (const std::vector<std::string> &args : cases)
        EXPECT_EXIT(makeHarness(args),
                    ::testing::ExitedWithCode(kUsageError),
                    "unknown flag " + args[0])
            << args[0];
}

TEST(HarnessGuard, MalformedJobsDiesFast)
{
    // Text, a negative count, a fraction or a missing value must not
    // run at the default or on all cores.
    const std::vector<std::vector<std::string>> cases = {
        {"--jobs", "abc"}, {"--jobs", "-3"}, {"--jobs", "1.5"}, {"--jobs"}};
    for (const std::vector<std::string> &args : cases) {
        const std::string value = args.size() > 1 ? args[1] : "";
        EXPECT_EXIT(makeHarness(args),
                    ::testing::ExitedWithCode(kUsageError),
                    "--jobs must be a whole number >= 0 .got '" + value +
                        "'")
            << value;
    }
}

TEST(HarnessGuard, WholeNumberJobsRun)
{
    EXPECT_EQ(makeHarness({"--jobs", "2"}).jobs(), 2u);
    EXPECT_GE(makeHarness({"--jobs", "0"}).jobs(), 1u); // All cores.
    EXPECT_EQ(makeHarness({}).jobs(), 1u);              // The default.
}

TEST(HarnessGuard, StrayArgumentsDieFast)
{
    // A path without its --json, or read as the value of a switch,
    // must not be dropped silently.
    EXPECT_EXIT(makeHarness({"out.json"}),
                ::testing::ExitedWithCode(kUsageError),
                "unexpected argument out.json");
    EXPECT_EXIT(makeHarness({"--json", "j.json", "extra"}),
                ::testing::ExitedWithCode(kUsageError),
                "unexpected argument extra");
    for (const std::string flag : {"--progress", "--profile"})
        EXPECT_EXIT(makeHarness({flag, "out.json"}),
                    ::testing::ExitedWithCode(kUsageError),
                    flag + " takes no value .got out.json")
            << flag;
}

TEST(HarnessGuard, BareOptionalFlagsTakeTheirDefaults)
{
    // Run in a scratch directory: the defaults are relative paths.
    const fs::path dir = tempPath("so_harness_bare_flags");
    fs::remove_all(dir);
    fs::create_directories(dir);
    const fs::path cwd = fs::current_path();
    fs::current_path(dir);
    EXPECT_EQ(makeHarness({"--json", "--trace-dir", "--self-trace"})
                  .finish(),
              0);
    fs::current_path(cwd);
    trace::setEnabled(false);
    trace::clearAll();
    EXPECT_TRUE(fs::is_regular_file(dir / "BENCH_guardtest.json"));
    EXPECT_TRUE(fs::is_directory(dir / "traces"));
    EXPECT_TRUE(
        fs::is_regular_file(dir / "BENCH_guardtest.selftrace.json"));
    fs::remove_all(dir);
}

TEST(HarnessGuard, JsonOnAFullDeviceIsFatal)
{
    EXPECT_EXIT(makeHarness({"--json", "/dev/full"}).finish(),
                ::testing::ExitedWithCode(1), "cannot write /dev/full");
}

TEST(HarnessGuard, SelfTraceIntoAMissingDirectoryIsFatal)
{
    const fs::path missing = tempPath("so_no_such_dir");
    fs::remove_all(missing);
    const std::string path = (missing / "x.json").string();
    EXPECT_EXIT(makeHarness({"--self-trace", path}).finish(),
                ::testing::ExitedWithCode(1), "cannot write " + path);
}

#ifdef SO_REPORT_BIN

/**
 * Run `so-report check RECORD --baseline BASELINE` with @p extra flags,
 * parse the verdict it writes into @p verdict and return its exit code.
 */
int
checkRecord(const fs::path &record, const fs::path &baseline,
            const std::string &extra, JsonValue &verdict)
{
    const fs::path verdict_path = record.string() + ".verdict.json";
    fs::remove(verdict_path);
    const std::string command =
        std::string(SO_REPORT_BIN) + " check " + record.string() +
        " --baseline " + baseline.string() + " --out " +
        verdict_path.string() + extra;
    const int status = std::system(command.c_str());
    std::ifstream in(verdict_path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    EXPECT_TRUE(JsonValue::parse(buf.str(), verdict, &error)) << error;
    fs::remove(verdict_path);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(HarnessGuard, BaselineCheckIsWarnOnlyAndWritesVerdict)
{
    const fs::path record = tempPath("so_guard_record.json");
    const fs::path baseline = tempPath("so_guard_baseline.json");
    fs::remove(record);

    // Baseline carries a gated metric the fresh record cannot have:
    // the check must flag it, yet --warn-only keeps exit code 0.
    std::ofstream(baseline.string())
        << R"({"vanished_per_s": 123.0})" << '\n';
    EXPECT_EQ(makeHarness({"--json", record.string()}).finish(), 0);
    ASSERT_TRUE(fs::exists(record));

    JsonValue verdict;
    EXPECT_EQ(checkRecord(record, baseline, " --warn-only", verdict), 0);
    ASSERT_TRUE(verdict.isObject());
    EXPECT_FALSE(verdict.at("pass").boolean());
    ASSERT_EQ(verdict.at("regressions").items().size(), 1u);
    EXPECT_EQ(verdict.at("regressions").items()[0].text(),
              "vanished_per_s");

    fs::remove(record);
    fs::remove(baseline);
}

TEST(HarnessGuard, BaselineCheckPassesAgainstOwnRecord)
{
    const fs::path record = tempPath("so_guard_self.json");
    fs::remove(record);

    EXPECT_EQ(makeHarness({"--json", record.string()}).finish(), 0);
    ASSERT_TRUE(fs::exists(record));

    JsonValue verdict;
    EXPECT_EQ(checkRecord(record, record, "", verdict), 0);
    ASSERT_TRUE(verdict.isObject());
    EXPECT_TRUE(verdict.at("pass").boolean());

    fs::remove(record);
}

#endif // SO_REPORT_BIN

} // namespace
} // namespace so::bench
