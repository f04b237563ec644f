/**
 * @file
 * Harness guard-rail tests: --trace-dir pointing at an existing
 * regular file dies fast with a clear message (before any sweep work),
 * a valid --trace-dir is created up front, an unusable --tolerance
 * dies at parse time, a --json record or --self-trace export that
 * cannot be written in full is fatal, and --baseline runs the
 * in-process regression check, writing a machine-readable verdict file
 * while keeping the exit code 0 (warn-only).
 */
#include "bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"

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

TEST(HarnessGuard, UnusableToleranceDiesFast)
{
    for (const char *tolerance : {"nan", "inf", "abc", "-1"})
        EXPECT_EXIT(makeHarness({"--tolerance", tolerance}),
                    ::testing::ExitedWithCode(1), "finite number")
            << tolerance;
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

TEST(HarnessGuard, BaselineCheckIsWarnOnlyAndWritesVerdict)
{
    const fs::path json_path = tempPath("so_guard_record.json");
    const fs::path verdict_path =
        tempPath("so_guard_record.verdict.json");
    const fs::path baseline_path = tempPath("so_guard_baseline.json");
    fs::remove(json_path);
    fs::remove(verdict_path);

    // Baseline carries a gated metric the fresh record cannot have:
    // the check must flag it, yet finish() stays exit-code 0.
    std::ofstream(baseline_path.string())
        << R"({"vanished_per_s": 123.0})" << '\n';

    Harness harness = makeHarness(
        {"--json", json_path.string(), "--baseline",
         baseline_path.string()});
    EXPECT_EQ(harness.finish(), 0);

    ASSERT_TRUE(fs::exists(json_path));
    ASSERT_TRUE(fs::exists(verdict_path));
    std::ifstream in(verdict_path.string());
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue verdict;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(buf.str(), verdict, &error)) << error;
    EXPECT_FALSE(verdict.at("pass").boolean());
    EXPECT_EQ(verdict.at("regressions").items().size(), 1u);
    EXPECT_EQ(verdict.at("regressions").items()[0].text(),
              "vanished_per_s");

    fs::remove(json_path);
    fs::remove(verdict_path);
    fs::remove(baseline_path);
}

TEST(HarnessGuard, BaselineCheckPassesAgainstOwnRecord)
{
    const fs::path json_path = tempPath("so_guard_self.json");
    const fs::path verdict_path =
        tempPath("so_guard_self.verdict.json");
    fs::remove(json_path);
    fs::remove(verdict_path);

    // First run writes the record; second run checks against it.
    makeHarness({"--json", json_path.string()}).finish();
    ASSERT_TRUE(fs::exists(json_path));
    Harness second = makeHarness({"--json", json_path.string(),
                                  "--baseline", json_path.string()});
    EXPECT_EQ(second.finish(), 0);

    std::ifstream in(verdict_path.string());
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue verdict;
    ASSERT_TRUE(JsonValue::parse(buf.str(), verdict));
    EXPECT_TRUE(verdict.at("pass").boolean());

    fs::remove(json_path);
    fs::remove(verdict_path);
}

} // namespace
} // namespace so::bench
