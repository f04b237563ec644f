/**
 * @file
 * Trace query engine tests (report/query.h): streaming aggregation
 * over bundle shards and Chrome traces with phase/resource/window
 * filters and top-N ranking, plus the `so-report` CLI contract — the
 * query subcommand answers over real artifacts, an unknown subcommand
 * exits with the distinct usage status listing the valid ones, every
 * subcommand reads its flags by one declaration (an unknown flag, a
 * malformed --top, --rank or --metric, an unusable window or
 * --tolerance/--tol value exit so::kUsageError; a switch takes no
 * input; every --tol applies), check gates on a regression unless
 * --warn-only and writes
 * the same verdict either way, html --trace-dir embeds bundles and
 * profiles but not bundle shards, html and check fail when their --out
 * file cannot be written,
 * top and diff reject malformed documents with exit 1, the query and
 * selftrace readers treat out-of-range numbers as absent, and selftrace
 * prints the same queue-wait line for a Chrome trace and its summary.
 */
#include "report/query.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "common/argparse.h"
#include "common/json.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace so::report {
namespace {

/**
 * @p name under the test temp dir, prefixed with the running test's
 * name: gtest_discover_tests runs every test in its own process and
 * `ctest -j` runs them at once, so two tests must never share a path.
 */
std::string
tempPath(const std::string &name)
{
    return testing::TempDir() +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + name;
}

/** Write @p text to a fresh file at tempPath(@p name). */
std::string
writeFile(const std::string &name, const std::string &text)
{
    const std::string path = tempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    return path;
}

/**
 * A hand-authored two-resource shard file with four spans chosen so
 * every aggregate below is exact in binary floating point:
 *
 *   id  phase  resource  span      slack  power_w
 *   0   fwd    GPU       [0, 2)    0      100
 *   1   bwd    GPU       [2, 6)    1.5    100
 *   2   adam   CPU       [1, 4)    0      0
 *   3   d2h    CPU       [4, 9)    3      0
 */
std::string
shardFixture()
{
    return writeFile(
        "query_fixture.bundle.jsonl",
        R"({"schema_version":2,"kind":"bundle_shard_header","label":"fix","makespan_s":10,"total_j":600,"avg_w":60,"task_count":4,"edge_count":1,"chunk":2,"resources":[{"resource":"GPU","slots":1,"busy_s":6,"idle_dependency_s":0,"idle_contention_s":0,"idle_tail_s":4,"busy_w":100,"idle_w":10},{"resource":"CPU","slots":1,"busy_s":8,"idle_dependency_s":0,"idle_contention_s":0,"idle_tail_s":2,"busy_w":0,"idle_w":0}]}
{"kind":"bundle_tasks","tasks":[{"id":0,"label":"fwd a","phase":"fwd","resource":0,"slot":0,"start_s":0,"end_s":2,"slack_s":0,"power_w":100},{"id":1,"label":"bwd a","phase":"bwd","resource":0,"slot":0,"start_s":2,"end_s":6,"slack_s":1.5,"power_w":100}]}
{"kind":"bundle_tasks","tasks":[{"id":2,"label":"adam shard","phase":"adam","resource":1,"slot":0,"start_s":1,"end_s":4,"slack_s":0,"power_w":0},{"id":3,"label":"d2h bucket","phase":"d2h","resource":1,"slot":0,"start_s":4,"end_s":9,"slack_s":3,"power_w":0}]}
{"kind":"bundle_edges","edges":[[0,1]]}
{"kind":"bundle_critical","tasks":[0,1]}
)");
}

/** A minimal Chrome trace over the same GPU spans, ts/dur in µs. */
std::string
traceFixture()
{
    return writeFile(
        "query_fixture.trace.json",
        R"({"traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"GPU"}},
{"ph":"X","pid":0,"tid":0,"ts":0,"dur":2000000,"name":"fwd a"},
{"ph":"X","pid":0,"tid":0,"ts":2000000,"dur":4000000,"name":"bwd a"}
],"displayTimeUnit":"ms"})");
}

double
aggSeconds(const std::vector<std::pair<std::string, QueryAgg>> &rows,
           const std::string &name)
{
    for (const auto &[key, agg] : rows)
        if (key == name)
            return agg.seconds;
    return -1.0;
}

TEST(Query, UnfilteredAggregatesOverShards)
{
    QueryResult result;
    std::string error;
    ASSERT_TRUE(
        queryFiles({shardFixture()}, QueryOptions{}, result, &error))
        << error;
    EXPECT_EQ(result.files, 1u);
    EXPECT_EQ(result.scanned, 4u);
    EXPECT_EQ(result.matched, 4u);
    EXPECT_DOUBLE_EQ(result.busy_s, 14.0);
    EXPECT_DOUBLE_EQ(result.joules, 600.0);
    EXPECT_DOUBLE_EQ(aggSeconds(result.by_resource, "GPU"), 6.0);
    EXPECT_DOUBLE_EQ(aggSeconds(result.by_resource, "CPU"), 8.0);
    // Largest seconds first.
    EXPECT_EQ(result.by_resource.front().first, "CPU");
    EXPECT_DOUBLE_EQ(aggSeconds(result.by_phase, "adam"), 3.0);

    // Default rank: span duration, best first.
    ASSERT_EQ(result.top.size(), 4u);
    EXPECT_EQ(result.top[0].label, "d2h bucket");
    EXPECT_DOUBLE_EQ(result.top[0].value, 5.0);
    EXPECT_EQ(result.top[1].label, "bwd a");
    EXPECT_EQ(result.top[3].label, "fwd a");
}

TEST(Query, PhaseAndResourceFilters)
{
    QueryOptions by_phase;
    by_phase.phase = "adam";
    QueryResult result;
    ASSERT_TRUE(
        queryFiles({shardFixture()}, by_phase, result, nullptr));
    EXPECT_EQ(result.scanned, 4u);
    EXPECT_EQ(result.matched, 1u);
    EXPECT_DOUBLE_EQ(result.busy_s, 3.0);
    ASSERT_EQ(result.top.size(), 1u);
    EXPECT_EQ(result.top[0].resource, "CPU");

    QueryOptions by_resource;
    by_resource.resource = "GPU";
    result = QueryResult{};
    ASSERT_TRUE(
        queryFiles({shardFixture()}, by_resource, result, nullptr));
    EXPECT_EQ(result.matched, 2u);
    EXPECT_DOUBLE_EQ(result.busy_s, 6.0);
    EXPECT_DOUBLE_EQ(result.joules, 600.0);
}

TEST(Query, WindowClipsAggregatesButRanksFullSpans)
{
    QueryOptions options;
    options.begin_s = 2.0;
    options.end_s = 5.0;
    QueryResult result;
    ASSERT_TRUE(
        queryFiles({shardFixture()}, options, result, nullptr));
    // fwd [0,2) ends exactly at the window start: excluded.
    EXPECT_EQ(result.matched, 3u);
    // bwd clips to [2,5)=3, adam to [2,4)=2, d2h to [4,5)=1.
    EXPECT_DOUBLE_EQ(result.busy_s, 6.0);
    // Joules clip with the span: 100 W x 3 s of bwd.
    EXPECT_DOUBLE_EQ(result.joules, 300.0);
    // Ranking still uses the full span, not the clipped slice.
    ASSERT_FALSE(result.top.empty());
    EXPECT_EQ(result.top[0].label, "d2h bucket");
    EXPECT_DOUBLE_EQ(result.top[0].value, 5.0);
}

TEST(Query, RankBySlackAndJoules)
{
    QueryOptions options;
    options.rank = QueryOptions::Rank::Slack;
    QueryResult result;
    ASSERT_TRUE(
        queryFiles({shardFixture()}, options, result, nullptr));
    ASSERT_GE(result.top.size(), 2u);
    EXPECT_EQ(result.top[0].label, "d2h bucket");
    EXPECT_DOUBLE_EQ(result.top[0].value, 3.0);
    EXPECT_EQ(result.top[1].label, "bwd a");
    EXPECT_DOUBLE_EQ(result.top[1].value, 1.5);

    options.rank = QueryOptions::Rank::Joules;
    result = QueryResult{};
    ASSERT_TRUE(
        queryFiles({shardFixture()}, options, result, nullptr));
    EXPECT_EQ(result.top[0].label, "bwd a");
    EXPECT_DOUBLE_EQ(result.top[0].value, 400.0);
}

TEST(Query, TopNCapsRetainedSpans)
{
    QueryOptions options;
    options.top_n = 2;
    QueryResult result;
    ASSERT_TRUE(
        queryFiles({shardFixture()}, options, result, nullptr));
    EXPECT_EQ(result.matched, 4u);
    ASSERT_EQ(result.top.size(), 2u);
    EXPECT_EQ(result.top[0].label, "d2h bucket");
    EXPECT_EQ(result.top[1].label, "bwd a");
}

TEST(Query, ChromeTraceEventsResolveResourceNames)
{
    QueryResult result;
    std::string error;
    ASSERT_TRUE(
        queryFiles({traceFixture()}, QueryOptions{}, result, &error))
        << error;
    EXPECT_EQ(result.scanned, 2u);
    EXPECT_DOUBLE_EQ(result.busy_s, 6.0);
    EXPECT_DOUBLE_EQ(aggSeconds(result.by_resource, "GPU"), 6.0);
    EXPECT_DOUBLE_EQ(aggSeconds(result.by_phase, "bwd"), 4.0);
}

TEST(Query, MixedInputsAccumulateIntoOneResult)
{
    QueryResult result;
    ASSERT_TRUE(queryFiles({shardFixture(), traceFixture()},
                           QueryOptions{}, result, nullptr));
    EXPECT_EQ(result.files, 2u);
    EXPECT_EQ(result.scanned, 6u);
    // Shard GPU 6 s + trace GPU 6 s + shard CPU 8 s.
    EXPECT_DOUBLE_EQ(result.busy_s, 20.0);
    EXPECT_DOUBLE_EQ(aggSeconds(result.by_resource, "GPU"), 12.0);
}

TEST(Query, MissingFileAndSpanlessInputFail)
{
    QueryResult result;
    std::string error;
    EXPECT_FALSE(queryFiles({tempPath("query_absent.jsonl")},
                            QueryOptions{}, result, &error));
    EXPECT_FALSE(error.empty());

    const std::string spanless =
        writeFile("query_spanless.json", R"({"hello":"world"})");
    error.clear();
    result = QueryResult{};
    EXPECT_FALSE(
        queryFiles({spanless}, QueryOptions{}, result, &error));
    EXPECT_NE(error.find("no spans"), std::string::npos) << error;
}

TEST(Query, TextAndJsonRenderings)
{
    QueryOptions options;
    options.phase = "bwd";
    QueryResult result;
    ASSERT_TRUE(
        queryFiles({shardFixture()}, options, result, nullptr));

    const std::string text = queryToText(result, options);
    EXPECT_NE(text.find("bwd"), std::string::npos);
    EXPECT_NE(text.find("GPU"), std::string::npos);

    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(queryToJson(result, options), doc));
    EXPECT_EQ(doc.at("kind").text(), "query_result");
    EXPECT_EQ(doc.at("filters").at("phase").text(), "bwd");
    EXPECT_TRUE(doc.at("filters").at("end_s").isNull());
    EXPECT_EQ(static_cast<std::uint64_t>(doc.at("matched").number()),
              result.matched);
    EXPECT_DOUBLE_EQ(doc.at("busy_s").number(), 4.0);
    ASSERT_FALSE(doc.at("top").items().empty());
    EXPECT_EQ(doc.at("top").items()[0].at("label").text(), "bwd a");
}

#ifdef SO_REPORT_BIN

/** Run the so-report binary, capturing stdout+stderr and exit code. */
int
runReport(const std::string &arguments, std::string &output)
{
    const std::string command =
        std::string(SO_REPORT_BIN) + " " + arguments + " 2>&1";
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

TEST(Query, CliUnknownSubcommandExitsWithUsageStatus)
{
    std::string output;
    // 64 is EX_USAGE: distinct from the generic failure exit so CI
    // wrappers can tell a typo from a real report failure.
    EXPECT_EQ(runReport("frobnicate", output), 64);
    EXPECT_NE(output.find("unknown subcommand 'frobnicate'"),
              std::string::npos)
        << output;
    // The error names every valid subcommand.
    for (const char *name :
         {"diff", "check", "top", "html", "selftrace", "query"})
        EXPECT_NE(output.find(name), std::string::npos) << name;
}

TEST(Query, CliQueryAnswersOverShards)
{
    std::string output;
    ASSERT_EQ(runReport("query " + shardFixture() +
                            " --phase adam --json",
                        output), 0)
        << output;
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(output, doc)) << output;
    EXPECT_EQ(doc.at("kind").text(), "query_result");
    EXPECT_EQ(static_cast<int>(doc.at("matched").number()), 1);

    // Bad rank key: usage failure, not a crash.
    EXPECT_EQ(runReport("query " + shardFixture() + " --rank sideways",
                        output),
              kUsageError);
    EXPECT_NE(output.find("--rank must be one of duration|slack|joules "
                          "(got 'sideways')"),
              std::string::npos)
        << output;

    // An unusable window: a message and the usage status. A NaN bound
    // would match every span and print as null, like an unbounded end;
    // it is no number, like text or nothing at all.
    for (const char *window :
         {"--begin nan", "--begin abc", "--begin", "--end nan"}) {
        EXPECT_EQ(runReport("query " + shardFixture() + " " + window,
                            output),
                  kUsageError)
            << window << ": " << output;
        EXPECT_NE(output.find("must be a number"), std::string::npos)
            << window << ": " << output;
    }
    for (const char *window :
         {"--begin inf", "--begin -inf", "--end -inf", "--end 2 --begin 2",
          "--begin 5 --end 1", "--begin -1 --end -2"}) {
        EXPECT_EQ(runReport("query " + shardFixture() + " " + window,
                            output),
                  kUsageError)
            << window << ": " << output;
        EXPECT_NE(output.find("finite --begin"), std::string::npos)
            << window << ": " << output;
    }

    // An infinite end is the unbounded default, spelled out.
    ASSERT_EQ(runReport("query " + shardFixture() +
                            " --begin 3 --end inf --json",
                        output),
              0)
        << output;
    ASSERT_TRUE(JsonValue::parse(output, doc)) << output;
    EXPECT_EQ(doc.at("filters").at("begin_s").number(), 3.0);
    EXPECT_TRUE(doc.at("filters").at("end_s").isNull());
    // Spans 1, 2 and 3 reach past t = 3 (bwd [2, 6), adam [1, 4),
    // d2h [4, 9)).
    EXPECT_EQ(static_cast<int>(doc.at("matched").number()), 3);
}

TEST(Query, CliCheckRejectsUnusableTolerance)
{
    const std::string record = writeFile("check_record.json", "{}");
    std::string output;
    // Non-numeric and non-finite (overflowing) tolerances: a message
    // and the usage status, like a missing '=', instead of an uncaught
    // exception.
    for (const char *tol : {"v_per_s=abc", "v_per_s=1e999"}) {
        EXPECT_EQ(runReport("check " + record + " --baseline " + record +
                                " --tol " + tol,
                            output),
                  kUsageError)
            << tol << ": " << output;
        EXPECT_NE(output.find("finite number"), std::string::npos)
            << output;
    }
    // The default tolerance follows the same rule: nan and inf would
    // pass every metric, a negative value would fail every one, and
    // text that is not a number would silently keep the default. nan
    // and text are no number at all; inf and -1 are out of range.
    const struct
    {
        const char *tolerance;
        const char *named;
    } kCases[] = {
        {"nan", "--tolerance must be a number (got 'nan')"},
        {"inf", "finite number"},
        {"abc", "--tolerance must be a number (got 'abc')"},
        {"-1", "finite number"},
    };
    for (const auto &c : kCases) {
        EXPECT_EQ(runReport("check " + record + " --baseline " + record +
                                " --tolerance " + c.tolerance,
                            output),
                  kUsageError)
            << c.tolerance << ": " << output;
        EXPECT_NE(output.find(c.named), std::string::npos)
            << c.tolerance << ": " << output;
    }
}

TEST(Query, CliFlagsFollowEachSubcommandsDeclaration)
{
    // A 20% drop: --tolerance 0.1 fails it, a misspelt --tolerence must
    // not drop the flag and pass it.
    const std::string fresh = writeFile("typo_fresh.json", R"({"a_per_s":80})");
    const std::string base = writeFile("typo_base.json", R"({"a_per_s":100})");
    const std::string check = "check " + fresh + " --baseline " + base;
    std::string output;
    EXPECT_EQ(runReport(check + " --tolerance 0.1", output), 1) << output;
    EXPECT_EQ(runReport(check + " --tolerence 0.1", output), kUsageError)
        << output;
    EXPECT_NE(output.find("unknown flag --tolerence"), std::string::npos)
        << output;
    EXPECT_EQ(runReport(check + " --tolerance 0.3", output), 0) << output;
    // A flag another subcommand declares is still unknown here.
    EXPECT_EQ(runReport(check + " --phase fwd", output), kUsageError)
        << output;
    EXPECT_EQ(runReport("check --no-such-flag", output), kUsageError);
    EXPECT_NE(output.find("unknown flag --no-such-flag"), std::string::npos)
        << output;
    // A missing input or --baseline is a usage error too.
    EXPECT_EQ(runReport("check " + fresh, output), kUsageError) << output;
    EXPECT_EQ(runReport("check --baseline " + base, output), kUsageError)
        << output;
    EXPECT_EQ(runReport("check " + fresh + " " + fresh + " --baseline " +
                            base,
                        output),
              kUsageError)
        << output;
    EXPECT_NE(output.find("unexpected argument " + fresh),
              std::string::npos)
        << output;

    // --top is a whole number; text and negatives used to run at the
    // default and at 1.
    for (const std::string &command :
         {"query " + shardFixture(), "top " + fresh, "selftrace " + fresh,
          "diff " + fresh + " " + fresh})
        for (const char *top : {"abc", "-3"}) {
            EXPECT_EQ(runReport(command + " --top " + top, output),
                      kUsageError)
                << command << " --top " << top << ": " << output;
            EXPECT_NE(output.find("--top must be a whole number"),
                      std::string::npos)
                << output;
        }
    EXPECT_EQ(runReport("top " + fresh + " --metric joules", output),
              kUsageError);
    EXPECT_NE(output.find("--metric must be one of time|energy"),
              std::string::npos)
        << output;
}

TEST(Query, CliSwitchTakesNoInputAndEveryTolApplies)
{
    // --json is a switch: both shard files are scanned, not one.
    const std::string shard = shardFixture();
    std::string output;
    ASSERT_EQ(runReport("query --json " + shard + " " + shard, output), 0)
        << output;
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(output, doc)) << output;
    EXPECT_EQ(static_cast<int>(doc.at("matched").number()), 8);

    // Two --tol overrides both apply: each metric drops 30%, past the
    // default band, and each gets a 40% band, so the record passes.
    const std::string fresh =
        writeFile("tol_fresh.json", R"({"a_per_s":70,"b_per_s":70})");
    const std::string base =
        writeFile("tol_base.json", R"({"a_per_s":100,"b_per_s":100})");
    const std::string check = "check " + fresh + " --baseline " + base;
    EXPECT_EQ(runReport(check, output), 1) << output;
    EXPECT_EQ(runReport(check + " --tol a_per_s=0.4 --tol b_per_s=0.4",
                        output),
              0)
        << output;
    EXPECT_EQ(runReport(check + " --tol a_per_s=0.4", output), 1)
        << output;
}

TEST(Query, CliWritersFailOnAFullDevice)
{
    // A write that fails after the open (ENOSPC surfaces at the flush)
    // is an error, not a success message.
    const std::string record =
        writeFile("full_device_record.json", R"({"v_per_s":1})");
    std::string output;
    EXPECT_EQ(runReport("html " + record + " --out /dev/full", output), 1)
        << output;
    EXPECT_NE(output.find("cannot write /dev/full"), std::string::npos)
        << output;
    EXPECT_EQ(output.find("report written"), std::string::npos) << output;

    EXPECT_EQ(runReport("check " + record + " --baseline " + record +
                            " --out /dev/full",
                        output),
              1)
        << output;
    EXPECT_NE(output.find("cannot write /dev/full"), std::string::npos)
        << output;
    EXPECT_EQ(output.find("verdict written"), std::string::npos)
        << output;
}

TEST(Query, CliTopAndDiffRejectMalformedDocuments)
{
    // A number where an object belongs: a message and exit 1, like any
    // other unusable document, instead of an assertion abort.
    const std::string profile = writeFile(
        "malformed_profile.json", R"({"makespan_s":1,"critical_path":5})");
    const std::string record =
        writeFile("malformed_record.json", R"({"cells":[5]})");
    std::string output;
    EXPECT_EQ(runReport("top " + profile, output), 1) << output;
    EXPECT_NE(output.find("critical_path"), std::string::npos) << output;
    EXPECT_EQ(runReport("diff " + profile + " " + profile, output), 1)
        << output;
    EXPECT_NE(output.find("critical_path"), std::string::npos) << output;
    EXPECT_EQ(runReport("top " + record + " --cell 0", output), 1)
        << output;
    EXPECT_NE(output.find("not an object"), std::string::npos) << output;
}

TEST(Query, CliReadersTreatOutOfRangeNumbersAsAbsent)
{
    // query: a negative resource index and a pid beyond int64 name no
    // resource, like a wrong-typed member.
    const std::string shard = writeFile(
        "out_of_range.bundle.jsonl",
        R"({"schema_version":2,"kind":"bundle_shard_header","label":"x","makespan_s":1,"task_count":1,"resources":[{"resource":"GPU","slots":1}]}
{"kind":"bundle_tasks","tasks":[{"id":0,"label":"fwd a","phase":"fwd","resource":-1,"slot":0,"start_s":0,"end_s":1}]}
)");
    const std::string trace = writeFile(
        "out_of_range.trace.json",
        R"({"traceEvents":[
{"ph":"M","pid":1e300,"name":"process_name","args":{"name":"GPU"}},
{"ph":"X","pid":1e300,"tid":0,"ts":0,"dur":1000000,"name":"fwd a"}
]})");
    std::string output;
    for (const std::string &file : {shard, trace}) {
        ASSERT_EQ(runReport("query " + file + " --json", output), 0)
            << output;
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(output, doc)) << output;
        ASSERT_EQ(doc.at("by_resource").items().size(), 1u) << output;
        EXPECT_EQ(doc.at("by_resource").items()[0].at("resource").text(),
                  "(unknown)");
    }

    // selftrace: negative and huge counts and tids read as absent.
    const std::string host_trace = writeFile(
        "out_of_range.selftrace.json",
        R"({"traceEvents":[
{"ph":"C","name":"dropped_spans","args":{"dropped":-1}},
{"ph":"X","cat":"pool","name":"job","tid":1e300,"ts":0,"dur":10}
]})");
    ASSERT_EQ(runReport("selftrace " + host_trace, output), 0) << output;
    EXPECT_NE(output.find("1 span(s)"), std::string::npos) << output;
    EXPECT_EQ(output.find("dropped"), std::string::npos) << output;
    EXPECT_EQ(output.find("worker utilization"), std::string::npos)
        << output;

    const std::string self_profile = writeFile(
        "out_of_range.selfprofile.json",
        R"({"kind":"self_profile","wall_s":1,"spans":-1,"dropped":1e300,
"categories":{"sim":{"count":-5,"total_s":0.5}},
"workers":[{"tid":1e300,"jobs":-1,"busy_s":0.5}],
"queue_wait":{"count":1e300,"mean_s":0.1}})");
    ASSERT_EQ(runReport("selftrace " + self_profile, output), 0)
        << output;
    EXPECT_NE(output.find("0 span(s)"), std::string::npos) << output;
    EXPECT_EQ(output.find("dropped"), std::string::npos) << output;
    EXPECT_EQ(output.find("queue wait"), std::string::npos) << output;
}

TEST(Query, CliSelftraceQueueWaitAgreesForBothInputShapes)
{
    // One export with pool jobs. 21 jobs put p50 and p95 on order
    // statistics (positions 10 and 19), which the Chrome trace carries
    // exactly, so both documents must print the same line.
    trace::clearAll();
    trace::setEnabled(true);
    {
        ThreadPool pool(2);
        for (int i = 0; i < 21; ++i)
            pool.submit([] {});
        pool.wait();
    }
    trace::setEnabled(false);
    const std::string stem = tempPath("selftrace_cli");
    ASSERT_TRUE(trace::writeExport(stem + ".json"));
    trace::clearAll();

    auto queue_wait_line = [](const std::string &file) {
        std::string output;
        EXPECT_EQ(runReport("selftrace " + file, output), 0) << output;
        const std::size_t at = output.find("queue wait over");
        return at == std::string::npos
                   ? std::string()
                   : output.substr(at, output.find('\n', at) - at);
    };
    const std::string from_trace = queue_wait_line(stem + ".json");
    EXPECT_NE(from_trace.find("21 job(s)"), std::string::npos)
        << from_trace;
    EXPECT_EQ(from_trace, queue_wait_line(stem + ".selfprofile.json"));
}

TEST(Query, CliCheckGatesUnlessWarnOnlyAndWritesVerdict)
{
    // The baseline carries a gated metric the fresh record lacks: a
    // vanished metric is a regression.
    const std::string record =
        writeFile("check_fresh.json", R"({"bench":"guard","jobs":1})");
    const std::string baseline =
        writeFile("check_vanished.json", R"({"vanished_per_s":123.0})");
    const std::string verdict_path = tempPath("verdict.json");
    auto regressions = [&] {
        std::ifstream in(verdict_path);
        std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
        JsonValue verdict;
        std::vector<std::string> out;
        EXPECT_TRUE(JsonValue::parse(text, verdict)) << text;
        if (verdict.isObject())
            for (const JsonValue &path : verdict.at("regressions").items())
                out.push_back(path.text());
        return out;
    };
    const std::vector<std::string> vanished = {"vanished_per_s"};

    std::string output;
    std::remove(verdict_path.c_str());
    EXPECT_EQ(runReport("check " + record + " --baseline " + baseline +
                            " --out " + verdict_path,
                        output),
              1)
        << output;
    EXPECT_EQ(regressions(), vanished);

    std::remove(verdict_path.c_str());
    EXPECT_EQ(runReport("check " + record + " --baseline " + baseline +
                            " --out " + verdict_path + " --warn-only",
                        output),
              0)
        << output;
    EXPECT_EQ(regressions(), vanished);

    // A record checked against itself passes.
    std::remove(verdict_path.c_str());
    EXPECT_EQ(runReport("check " + record + " --baseline " + record +
                            " --out " + verdict_path,
                        output),
              0)
        << output;
    EXPECT_TRUE(regressions().empty());
}

TEST(Query, CliHtmlTraceDirSkipsBundleShards)
{
    // One file of each kind a trace directory holds. Only the bundle
    // and the profile belong on the page; the shard file is what
    // `so-report query` reads, not history.
    const std::string dir = tempPath("html_trace_dir");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto put = [&](const std::string &name, const std::string &text) {
        std::ofstream(dir + "/" + name, std::ios::binary) << text;
    };
    put("x_cell0.bundle.json",
        R"({"kind":"inspection_bundle","label":"cell 0"})");
    put("x_cell0.profile.json",
        R"({"makespan_s":1.0,"critical_path":{"length_s":1.0,)"
        R"("phases":[{"phase":"fwd","seconds":1.0}]},"resources":[]})");
    put("x_cell0.trace.json", R"({"traceEvents":[]})");
    put("x_1000.bundle.jsonl",
        R"({"kind":"bundle_shard_header","label":"x","task_count":0})"
        "\n"
        R"({"kind":"bundle_tasks","tasks":[]})"
        "\n");

    const std::string page = dir + "/page.html";
    std::string output;
    ASSERT_EQ(runReport("html --trace-dir " + dir + " --out " + page,
                        output),
              0)
        << output;
    std::ifstream in(page);
    const std::string html((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::string open =
        "<script id=\"so-data\" type=\"application/json\">";
    const std::size_t begin = html.find(open);
    ASSERT_NE(begin, std::string::npos);
    const std::size_t start = begin + open.size();
    const std::size_t end = html.find("</script>", start);
    ASSERT_NE(end, std::string::npos);
    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(html.substr(start, end - start), island,
                                 &error))
        << error;
    EXPECT_EQ(island.at("schedules").items().size(), 1u);
    EXPECT_EQ(island.at("profiles").items().size(), 1u);
    EXPECT_TRUE(island.at("history").items().empty());
    std::filesystem::remove_all(dir);
}

#endif // SO_REPORT_BIN

} // namespace
} // namespace so::report
