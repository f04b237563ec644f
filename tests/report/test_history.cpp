/**
 * @file
 * Bench-guard contract tests: numeric leaves flatten to stable paths,
 * the suffix convention fixes each metric's better-direction, the
 * check passes on identical records and catches throughput drops /
 * latency growth / vanished metrics, tolerances (default and per-path)
 * are honored, the `metrics` subtree never gates, the verdict JSON
 * parses, and the JSONL history appends and reloads records.
 */
#include "report/history.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/json.h"

namespace so::report {
namespace {

JsonValue
parsed(const std::string &text)
{
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(JsonValue::parse(text, doc, &error)) << error;
    return doc;
}

const char *kRecord = R"({
  "bench": "sim_kernel",
  "jobs": 4,
  "sizes": [
    {"tasks": 100, "reps": 3, "build_s_mean": 0.010,
     "build_tasks_per_s": 10000.0},
    {"tasks": 1000, "reps": 3, "build_s_mean": 0.100,
     "build_tasks_per_s": 10000.0}
  ],
  "metrics": {"histograms": {"wall_s": {"count": 3, "sum": 0.5}}}
})";

TEST(BenchGuard, FlattenProducesIndexedPaths)
{
    std::vector<std::pair<std::string, double>> flat;
    flattenNumericLeaves(parsed(kRecord), "", flat);
    auto value_of = [&](const std::string &path, double *out) {
        for (const auto &[p, v] : flat)
            if (p == path) {
                *out = v;
                return true;
            }
        return false;
    };
    double v = 0.0;
    EXPECT_TRUE(value_of("jobs", &v));
    EXPECT_DOUBLE_EQ(v, 4.0);
    EXPECT_TRUE(value_of("sizes[0].build_tasks_per_s", &v));
    EXPECT_DOUBLE_EQ(v, 10000.0);
    EXPECT_TRUE(value_of("sizes[1].build_s_mean", &v));
    EXPECT_DOUBLE_EQ(v, 0.1);
    // The metrics subtree is invisible to the guard.
    EXPECT_FALSE(value_of("metrics.histograms.wall_s.sum", &v));
}

TEST(BenchGuard, MetaSubtreeNeverGates)
{
    // The provenance block carries numbers (schema_version) that must
    // not be compared across runs, exactly like `metrics`.
    const char *record = R"({
      "bench": "sim_kernel",
      "iter_s": 0.5,
      "meta": {"schema_version": 1,
               "git_sha": "abc1234",
               "argv": ["bench", "--jobs", "4"]}
    })";
    std::vector<std::pair<std::string, double>> flat;
    flattenNumericLeaves(parsed(record), "", flat);
    for (const auto &[path, value] : flat) {
        (void)value;
        EXPECT_EQ(path.rfind("meta", 0), std::string::npos)
            << "meta leaked into the gate: " << path;
    }
    ASSERT_EQ(flat.size(), 1u);
    EXPECT_EQ(flat[0].first, "iter_s");
}

TEST(BenchGuard, DirectionFollowsSuffixConvention)
{
    EXPECT_EQ(metricDirection("sizes[0].build_tasks_per_s"), 1);
    EXPECT_EQ(metricDirection("sizes[0].build_s_mean"), -1);
    EXPECT_EQ(metricDirection("cells[2].result.iter_time_s"), -1);
    EXPECT_EQ(metricDirection("latency_ms"), -1);
    EXPECT_EQ(metricDirection("sizes[0].tasks"), 0);
    EXPECT_EQ(metricDirection("jobs"), 0);
    EXPECT_EQ(metricDirection("share"), 0);
}

TEST(BenchGuard, EnergySuffixesGateLowerIsBetter)
{
    // Joules are a cost (docs/ENERGY.md): burning more regresses.
    EXPECT_EQ(metricDirection("cells[0].result.energy.total_j"), -1);
    EXPECT_EQ(metricDirection("systems[1].energy_j_per_iter"), -1);
    EXPECT_EQ(metricDirection("systems[1].energy_j_per_token"), -1);
    // Watts are a rate, not a cost: a faster schedule may draw more
    // average power while spending fewer joules, so `_w` never gates.
    EXPECT_EQ(metricDirection("cells[0].result.energy.avg_w"), 0);
    EXPECT_EQ(metricDirection("gpu_busy_w"), 0);
}

TEST(BenchGuard, EnergyGrowthRegressesAndWattsNeverGate)
{
    const JsonValue baseline =
        parsed(R"({"energy_j_per_iter": 100.0, "avg_w": 500.0})");
    // +100% joules: regresses; watts doubling alone never does.
    const CheckVerdict hot = checkAgainstBaseline(
        baseline,
        parsed(R"({"energy_j_per_iter": 200.0, "avg_w": 500.0})"));
    EXPECT_FALSE(hot.pass);
    ASSERT_EQ(hot.regressions().size(), 1u);
    EXPECT_EQ(hot.regressions()[0], "energy_j_per_iter");
    EXPECT_TRUE(checkAgainstBaseline(
                    baseline,
                    parsed(R"({"energy_j_per_iter": 100.0,
                               "avg_w": 1000.0})"))
                    .pass);
    // Spending fewer joules is never a regression.
    EXPECT_TRUE(checkAgainstBaseline(
                    baseline,
                    parsed(R"({"energy_j_per_iter": 10.0,
                               "avg_w": 500.0})"))
                    .pass);
    // A vanished energy metric regresses like any gated leaf.
    EXPECT_FALSE(
        checkAgainstBaseline(baseline, parsed(R"({"avg_w": 500.0})"))
            .pass);
}

TEST(BenchGuard, IdenticalRecordsPass)
{
    const JsonValue doc = parsed(kRecord);
    const CheckVerdict verdict = checkAgainstBaseline(doc, doc);
    EXPECT_TRUE(verdict.pass);
    EXPECT_TRUE(verdict.regressions().empty());
    EXPECT_EQ(verdict.gated, 4u); // 2 sizes x (per_s + s_mean).
    EXPECT_GT(verdict.checked, verdict.gated);
    EXPECT_NE(verdict.summary().find("pass"), std::string::npos);
}

TEST(BenchGuard, ThroughputDropRegresses)
{
    const JsonValue baseline = parsed(
        R"({"sizes": [{"build_tasks_per_s": 1000.0}]})");
    // -50% throughput: beyond the default 25% tolerance.
    const JsonValue slow =
        parsed(R"({"sizes": [{"build_tasks_per_s": 500.0}]})");
    CheckVerdict verdict = checkAgainstBaseline(baseline, slow);
    EXPECT_FALSE(verdict.pass);
    ASSERT_EQ(verdict.regressions().size(), 1u);
    EXPECT_EQ(verdict.regressions()[0], "sizes[0].build_tasks_per_s");
    EXPECT_NE(verdict.summary().find("REGRESSED"), std::string::npos);

    // -10% is within tolerance; +200% (an improvement) always passes.
    EXPECT_TRUE(checkAgainstBaseline(
                    baseline,
                    parsed(R"({"sizes": [{"build_tasks_per_s": 900.0}]})"))
                    .pass);
    EXPECT_TRUE(checkAgainstBaseline(
                    baseline,
                    parsed(R"({"sizes": [{"build_tasks_per_s": 3000.0}]})"))
                    .pass);
}

TEST(BenchGuard, LatencyGrowthRegresses)
{
    const JsonValue baseline = parsed(R"({"build_s_mean": 1.0})");
    EXPECT_FALSE(
        checkAgainstBaseline(baseline, parsed(R"({"build_s_mean": 2.0})"))
            .pass);
    EXPECT_TRUE(
        checkAgainstBaseline(baseline, parsed(R"({"build_s_mean": 1.1})"))
            .pass);
    // Getting faster is never a regression.
    EXPECT_TRUE(
        checkAgainstBaseline(baseline, parsed(R"({"build_s_mean": 0.1})"))
            .pass);
}

TEST(BenchGuard, MissingGatedMetricRegresses)
{
    const JsonValue baseline =
        parsed(R"({"a_per_s": 10.0, "count": 3})");
    const CheckVerdict verdict =
        checkAgainstBaseline(baseline, parsed(R"({"count": 3})"));
    EXPECT_FALSE(verdict.pass);
    ASSERT_EQ(verdict.metrics.size(), 1u);
    EXPECT_TRUE(verdict.metrics[0].missing);
    EXPECT_NE(verdict.summary().find("missing"), std::string::npos);

    // An ungated metric vanishing is not a regression.
    const JsonValue no_gates = parsed(R"({"count": 3, "extra": 1.0})");
    EXPECT_TRUE(
        checkAgainstBaseline(no_gates, parsed(R"({"count": 3})")).pass);
}

TEST(BenchGuard, ToleranceAndOverridesAreHonored)
{
    const JsonValue baseline = parsed(R"({"x_per_s": 100.0})");
    const JsonValue fresh = parsed(R"({"x_per_s": 60.0})"); // -40%.
    CheckOptions loose;
    loose.tolerance = 0.5;
    EXPECT_TRUE(checkAgainstBaseline(baseline, fresh, loose).pass);
    CheckOptions strict;
    strict.tolerance = 0.5;
    strict.overrides["x_per_s"] = 0.1;
    EXPECT_FALSE(checkAgainstBaseline(baseline, fresh, strict).pass);
}

TEST(BenchGuard, MetricsSubtreeNeverGates)
{
    const JsonValue baseline = parsed(
        R"({"metrics": {"histograms": {"wall_s": {"sum": 1.0}}}})");
    const JsonValue fresh = parsed(
        R"({"metrics": {"histograms": {"wall_s": {"sum": 99.0}}}})");
    const CheckVerdict verdict = checkAgainstBaseline(baseline, fresh);
    EXPECT_TRUE(verdict.pass);
    EXPECT_EQ(verdict.gated, 0u);
}

TEST(BenchGuard, VerdictJsonIsMachineReadable)
{
    const JsonValue baseline = parsed(R"({"a_per_s": 10.0})");
    const JsonValue fresh = parsed(R"({"a_per_s": 1.0})");
    const CheckVerdict verdict = checkAgainstBaseline(baseline, fresh);
    const JsonValue doc = parsed(verdict.json());
    EXPECT_FALSE(doc.at("pass").boolean());
    EXPECT_EQ(doc.at("regressions").items().size(), 1u);
    EXPECT_EQ(doc.at("regressions").items()[0].text(), "a_per_s");
    const JsonValue &metric = doc.at("metrics").items()[0];
    EXPECT_DOUBLE_EQ(metric.at("baseline").number(), 10.0);
    EXPECT_DOUBLE_EQ(metric.at("fresh").number(), 1.0);
    EXPECT_TRUE(metric.at("regressed").boolean());
}

TEST(BenchGuard, HistoryAppendsAndReloads)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "so_test_history.jsonl")
            .string();
    std::filesystem::remove(path);
    BenchHistory history(path);

    std::string error;
    ASSERT_TRUE(history.append(kRecord, &error)) << error;
    ASSERT_TRUE(history.append(R"({"bench": "second"})", &error))
        << error;
    EXPECT_FALSE(history.append("{not json", &error));

    // One compact record per line; the malformed one was not written.
    std::ifstream in(path);
    std::vector<JsonValue> records;
    std::string line;
    while (std::getline(in, line)) {
        JsonValue doc;
        ASSERT_TRUE(JsonValue::parse(line, doc, &error)) << error;
        records.push_back(std::move(doc));
    }
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].at("bench").text(), "sim_kernel");
    EXPECT_EQ(records[1].at("bench").text(), "second");
    std::filesystem::remove(path);
}

TEST(BenchGuard, CompactJsonRoundTrips)
{
    const JsonValue doc = parsed(kRecord);
    const std::string compact = compactJson(doc);
    EXPECT_EQ(compact.find('\n'), std::string::npos);
    const JsonValue again = parsed(compact);
    EXPECT_EQ(again.at("bench").text(), "sim_kernel");
    EXPECT_DOUBLE_EQ(
        again.at("sizes").items()[1].at("build_s_mean").number(), 0.1);
}

} // namespace
} // namespace so::report
