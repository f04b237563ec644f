/**
 * @file
 * Schedule Explorer safety-contract tests (see report/html.h): hostile
 * task labels — quotes, UTF-8, a literal script-closing tag — cannot
 * escape the embedded data island or the markup, the rendered document
 * references no external resource, and the data island round-trips
 * through the JSON parser with every task id intact.
 */
#include "report/html.h"

#include <gtest/gtest.h>

#include <string>

#include "common/json.h"
#include "sim/graph.h"
#include "sim/inspect.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"

namespace so::report {
namespace {

/** A bundle whose labels are actively hostile to HTML embedding. */
std::string
hostileBundleJson()
{
    sim::TaskGraph g;
    const sim::ResourceId gpu = g.addResource("GPU <&> \"quoted\"");
    const sim::TaskId a =
        g.addTask(gpu, 0.010, "fwd </script><script>alert(1)", {});
    const sim::TaskId b = g.addTask(gpu, 0.020, "bwd \"λ∑β\" 'mixed'", {a});
    g.addTask(gpu, 0.005, "cast <img src=x onerror=alert(2)>", {b});
    const sim::Schedule s = sim::Scheduler().run(g);
    const sim::ScheduleProfile prof = sim::profileSchedule(g, s);
    return sim::bundleToJson(g, s, prof, "hostile <title>");
}

HtmlReport
hostileReport()
{
    HtmlReport report;
    report.title = "report of <doom> & \"quotes\"";
    report.schedules.push_back(hostileBundleJson());
    return report;
}

/** The text between the data island's script tags. */
std::string
extractDataIsland(const std::string &html)
{
    const std::string open =
        "<script id=\"so-data\" type=\"application/json\">";
    const std::size_t begin = html.find(open);
    EXPECT_NE(begin, std::string::npos);
    if (begin == std::string::npos)
        return "";
    const std::size_t start = begin + open.size();
    const std::size_t end = html.find("</script>", start);
    EXPECT_NE(end, std::string::npos);
    return html.substr(start, end - start);
}

TEST(HtmlEscape, CoversTheFiveSignificantCharacters)
{
    EXPECT_EQ(htmlEscape("a<b>&\"'z"),
              "a&lt;b&gt;&amp;&quot;&#39;z");
    EXPECT_EQ(htmlEscape("plain text stays"), "plain text stays");
    // UTF-8 passes through untouched.
    EXPECT_EQ(htmlEscape("λ∑β"), "λ∑β");
}

TEST(EscapeJsonForScript, OnlyRewritesAngleOpens)
{
    EXPECT_EQ(escapeJsonForScript("{\"a\":\"</script>\"}"),
              "{\"a\":\"\\u003c/script>\"}");
    EXPECT_EQ(escapeJsonForScript("{\"n\":1}"), "{\"n\":1}");
}

TEST(HtmlReportRender, HostileLabelsCannotTerminateTheDataIsland)
{
    const std::string html = renderHtmlReport(hostileReport());

    // The raw injection sequence must not appear anywhere: inside the
    // island `<` is \u003c-escaped, and in markup it is &lt;-escaped.
    EXPECT_EQ(html.find("</script><script>alert"), std::string::npos);
    EXPECT_EQ(html.find("<img src=x"), std::string::npos);
    EXPECT_NE(html.find("\\u003c/script>"), std::string::npos);

    // The island itself contains no `<` at all, so nothing inside it
    // can open or close a tag.
    const std::string island = extractDataIsland(html);
    ASSERT_FALSE(island.empty());
    EXPECT_EQ(island.find('<'), std::string::npos);

    // The title is escaped into <title> and the header.
    EXPECT_EQ(html.find("<doom>"), std::string::npos);
    EXPECT_NE(html.find("&lt;doom&gt;"), std::string::npos);
}

TEST(HtmlReportRender, DataIslandRoundTripsWithEveryTask)
{
    const std::string bundle_text = hostileBundleJson();
    HtmlReport report;
    report.schedules.push_back(bundle_text);
    const std::string html = renderHtmlReport(report);

    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    const JsonValue &schedules = island.at("schedules");
    ASSERT_EQ(schedules.items().size(), 1u);

    // The embedded bundle is byte-equivalent to the input after JSON
    // decoding: same tasks, same labels (UTF-8 and quotes intact).
    JsonValue original;
    ASSERT_TRUE(JsonValue::parse(bundle_text, original, &error));
    const auto &in_tasks = original.at("tasks").items();
    const auto &out_tasks = schedules.items()[0].at("tasks").items();
    ASSERT_EQ(out_tasks.size(), in_tasks.size());
    for (std::size_t i = 0; i < in_tasks.size(); ++i) {
        EXPECT_DOUBLE_EQ(out_tasks[i].at("id").number(),
                         in_tasks[i].at("id").number());
        EXPECT_EQ(out_tasks[i].at("label").text(),
                  in_tasks[i].at("label").text());
    }
    EXPECT_EQ(out_tasks[1].at("label").text(), "bwd \"λ∑β\" 'mixed'");
}

TEST(HtmlReportRender, DocumentIsSelfContained)
{
    // Exercise every section at once: schedule, profile, record,
    // history, verdict, diff — then require zero external resource
    // references in the whole document.
    HtmlReport report;
    report.title = "full page";
    report.schedules.push_back(hostileBundleJson());
    report.profiles.emplace_back(
        "p", R"({"makespan_s":1.0,"critical_path":{"length_s":1.0,)"
             R"("phases":[{"phase":"fwd","seconds":1.0}]},)"
             R"("resources":[]})");
    report.records.emplace_back("r", R"({"bench":"x","cells":[]})");
    report.history_jsonl = "{\"bench\":\"x\",\"iter_s\":1.0}\n"
                           "not json at all\n"
                           "{\"bench\":\"x\",\"iter_s\":0.9}\n";
    report.verdict_json =
        R"({"pass":true,"tolerance":0.25,"checked":1,"gated":1,)"
        R"("regressions":[],"metrics":[]})";
    report.diff_json =
        R"({"before":{"label":"a","makespan_s":1.0},)"
        R"("after":{"label":"b","makespan_s":0.9},)"
        R"("makespan_delta_s":-0.1,"phases":[],"unattributed_s":-0.1,)"
        R"("resources":[]})";

    const std::string html = renderHtmlReport(report);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("//cdn"), std::string::npos);

    // Malformed history lines were dropped, valid ones kept.
    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    EXPECT_EQ(island.at("history").items().size(), 2u);
    EXPECT_TRUE(island.at("verdict").at("pass").boolean());
    EXPECT_DOUBLE_EQ(island.at("diff").at("makespan_delta_s").number(),
                     -0.1);
}

TEST(HtmlReportRender, MalformedSectionDegradesToNull)
{
    HtmlReport report;
    report.schedules.push_back("{truncated");
    report.verdict_json = "also broken";
    report.records.emplace_back("ok", "{\"bench\":\"x\"}");
    const std::string html = renderHtmlReport(report);

    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    ASSERT_EQ(island.at("schedules").items().size(), 1u);
    EXPECT_TRUE(island.at("schedules").items()[0].isNull());
    EXPECT_TRUE(island.at("verdict").isNull());
    EXPECT_EQ(island.at("records").items().size(), 1u);
}

TEST(HtmlReportRender, HostileTierNamesCannotEscapeTheRecordView)
{
    // Tier and channel names flow from result JSON into the drill
    // view's occupancy/traffic strips. A <script>-named tier must not
    // survive un-escaped anywhere in the rendered document.
    HtmlReport report;
    report.records.emplace_back(
        "hostile tiers",
        R"({"bench":"x","cells":[{"system":"s","result":{)"
        R"("feasible":true,)"
        R"("memory":{"tiers":[{)"
        R"("tier":"</script><script>alert(7)</script>",)"
        R"("bytes":1e9,"capacity":2e9,)"
        R"("description":"<b onmouseover=alert(8)>hot</b>"}]},)"
        R"("tier_traffic":[{"from":"<svg onload=alert(9)>",)"
        R"("to":"DDR","channel":"<img src=x onerror=alert(10)>",)"
        R"("bytes":5e8}]}}]})");
    const std::string html = renderHtmlReport(report);

    EXPECT_EQ(html.find("<script>alert(7)"), std::string::npos);
    EXPECT_EQ(html.find("<b onmouseover"), std::string::npos);
    EXPECT_EQ(html.find("<svg onload"), std::string::npos);
    EXPECT_EQ(html.find("<img src=x"), std::string::npos);

    // The island stays `<`-free yet round-trips the names intact.
    const std::string island = extractDataIsland(html);
    ASSERT_FALSE(island.empty());
    EXPECT_EQ(island.find('<'), std::string::npos);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(island, doc, &error)) << error;
    const JsonValue &tier = doc.at("records")
                                .items()[0]
                                .at("doc")
                                .at("cells")
                                .items()[0]
                                .at("result")
                                .at("memory")
                                .at("tiers")
                                .items()[0];
    EXPECT_EQ(tier.at("tier").text(),
              "</script><script>alert(7)</script>");
}

TEST(HtmlReportRender, MeteredBundleShipsThePowerTimelineOffline)
{
    // An energy-attributed bundle carries the watt fields the power
    // timeline samples, and the renderer for it ships in the page —
    // with zero external references, like every other section.
    sim::TaskGraph g;
    const sim::ResourceId gpu = g.addResource("GPU");
    const sim::ResourceId d2h = g.addResource("D2H");
    const sim::TaskId a = g.addTask(gpu, 0.010, "fwd", {});
    const sim::TaskId b = g.addTask(d2h, 0.005, "d2h grads", {a});
    g.addTask(gpu, 0.020, "bwd", {b});
    const sim::Schedule s = sim::Scheduler().run(g);
    const sim::ScheduleProfile prof = sim::profileSchedule(g, s);
    sim::EnergyInputs inputs;
    inputs.resources = {{700.0, 75.0, 0.0}, {15.0, 5.0, 1e-11}};
    inputs.task_bytes = {0.0, 1e9, 0.0};
    inputs.background.emplace_back("DDR refresh", 20.0);
    const sim::EnergyProfile energy =
        sim::attributeEnergy(g, s, prof, inputs);
    ASSERT_TRUE(energy.valid);

    HtmlReport report;
    report.title = "power";
    report.schedules.push_back(
        sim::bundleToJson(g, s, prof, "metered", &energy));
    const std::string html = renderHtmlReport(report);

    // The renderer, its styling, and its caption are all inline.
    EXPECT_NE(html.find("so-power"), std::string::npos);
    EXPECT_NE(html.find("power draw over time"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
    EXPECT_EQ(html.find("//cdn"), std::string::npos);

    // The island's bundle carries the fields the timeline reads.
    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    const JsonValue &bundle = island.at("schedules").items()[0];
    EXPECT_GT(bundle.at("total_j").number(), 0.0);
    EXPECT_GT(bundle.at("avg_w").number(), 0.0);
    const JsonValue &res0 = bundle.at("resources").items()[0];
    EXPECT_DOUBLE_EQ(res0.at("busy_w").number(), 700.0);
    EXPECT_DOUBLE_EQ(res0.at("idle_w").number(), 75.0);
    EXPECT_DOUBLE_EQ(
        bundle.at("tasks").items()[0].at("power_w").number(), 700.0);
}

TEST(HtmlReportRender, EngineTabRendersOfflineAndXssPinned)
{
    // The Engine tab embeds the host self-profile (so::trace
    // selfProfileJson) like every other section: validated into the
    // island, rendered by inline JS, no external references — and a
    // hostile document cannot escape.
    HtmlReport report;
    report.title = "engine";
    report.self_profile_json =
        R"({"schema_version":2,"kind":"self_profile","pid":1,)"
        R"("wall_s":2.0,"spans":10,"dropped":0,)"
        R"("categories":{"pool":{"count":8,"total_s":1.5},)"
        R"("sweep":{"count":2,"total_s":0.4}},)"
        R"("workers":[{"tid":1,"jobs":4,"busy_s":0.8,"busy_frac":0.4},)"
        R"({"tid":2,"jobs":4,"busy_s":0.7,"busy_frac":0.35}],)"
        R"("queue_wait":{"count":8,"mean_s":0.001,)"
        R"("p50_s":0.001,"p95_s":0.002},)"
        R"("cache":{"hits":3,"misses":7,)"
        R"("hit_mean_s":1e-6,"miss_mean_s":0.05}})";
    const std::string html = renderHtmlReport(report);

    // The renderer ships in the page and stays self-contained.
    EXPECT_NE(html.find("renderEngine"), std::string::npos);
    EXPECT_NE(html.find("'Engine'"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);

    // The island carries the document under the self_profile key.
    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    const JsonValue &profile = island.at("self_profile");
    EXPECT_EQ(profile.at("kind").text(), "self_profile");
    EXPECT_DOUBLE_EQ(
        profile.at("categories").at("pool").at("total_s").number(),
        1.5);
    EXPECT_EQ(profile.at("workers").items().size(), 2u);
}

TEST(HtmlReportRender, HostileSelfProfileCannotEscapeTheIsland)
{
    // A category key carrying a script-closing tag must be <-
    // escaped inside the island, and a malformed document degrades to
    // null instead of breaking the page.
    HtmlReport hostile;
    hostile.self_profile_json =
        R"({"kind":"self_profile","wall_s":1.0,"spans":1,"dropped":0,)"
        R"("categories":{"</script><script>alert(11)</script>":)"
        R"({"count":1,"total_s":1.0}},"workers":[],)"
        R"("queue_wait":{"count":0,"mean_s":0,"p50_s":0,"p95_s":0},)"
        R"("cache":{"hits":0,"misses":0,"hit_mean_s":0,)"
        R"("miss_mean_s":0}})";
    const std::string html = renderHtmlReport(hostile);
    EXPECT_EQ(html.find("<script>alert(11)"), std::string::npos);
    const std::string island = extractDataIsland(html);
    ASSERT_FALSE(island.empty());
    EXPECT_EQ(island.find('<'), std::string::npos);

    HtmlReport broken;
    broken.self_profile_json = "{not json";
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(
        extractDataIsland(renderHtmlReport(broken)), parsed, &error))
        << error;
    EXPECT_TRUE(parsed.at("self_profile").isNull());
}

TEST(HtmlReportRender, OversizeBundleBecomesTruncationStub)
{
    // A bundle over the inline cap must not reach the island at all —
    // not even parsed — so a hostile label inside it cannot appear
    // anywhere in the page. The stub it becomes drives the visible
    // truncation banner and the shard drill-down loader.
    const std::string bundle_text = hostileBundleJson();
    HtmlReport report;
    report.title = "capped";
    report.schedules.push_back(bundle_text);
    report.max_inline_bundle_bytes = 64; // far below the bundle size

    const std::string html = renderHtmlReport(report);
    EXPECT_EQ(html.find("hostile"), std::string::npos);
    EXPECT_EQ(html.find("alert(1)"), std::string::npos);

    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    ASSERT_EQ(island.at("schedules").items().size(), 1u);
    const JsonValue &stub = island.at("schedules").items()[0];
    EXPECT_EQ(stub.at("kind").text(), "bundle_truncated");
    EXPECT_DOUBLE_EQ(stub.at("bytes").number(),
                     static_cast<double>(bundle_text.size()));
    EXPECT_DOUBLE_EQ(stub.at("limit").number(), 64.0);

    // The banner renderer and shard loader ship in the page, which
    // stays fully offline.
    EXPECT_NE(html.find("bundle_truncated"), std::string::npos);
    EXPECT_NE(html.find("shardLoader"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);

    // Cap 0 disables the ceiling: the same bundle embeds whole.
    report.max_inline_bundle_bytes = 0;
    const std::string uncapped = renderHtmlReport(report);
    JsonValue full_island;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(uncapped),
                                 full_island, &error))
        << error;
    EXPECT_EQ(full_island.at("schedules")
                  .items()[0]
                  .at("kind")
                  .text(),
              "inspection_bundle");
}

TEST(HtmlReportRender, SummaryProfileShipsLodRenderers)
{
    // A Summary-detail profile document renders through the banner +
    // histogram-strip path; those renderers must ship inline.
    sim::ProfileOptions options;
    options.detail = sim::ProfileOptions::Detail::Summary;
    sim::TaskGraph g;
    const sim::ResourceId gpu = g.addResource("GPU");
    const sim::TaskId a = g.addTask(gpu, 0.010, "fwd", {});
    g.addTask(gpu, 0.020, "bwd", {a});
    const sim::Schedule s = sim::Scheduler().run(g);
    const sim::ScheduleProfile prof = sim::profileSchedule(g, s, options);

    HtmlReport report;
    report.profiles.emplace_back("summary cell",
                                 sim::profileToJson(prof, g, s));
    const std::string html = renderHtmlReport(report);

    EXPECT_NE(html.find("binStrips"), std::string::npos);
    EXPECT_NE(html.find("so-banner"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);

    JsonValue island;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(extractDataIsland(html), island,
                                 &error))
        << error;
    const JsonValue &doc =
        island.at("profiles").items()[0].at("doc");
    EXPECT_EQ(doc.at("detail").text(), "summary");
    EXPECT_FALSE(doc.at("bins").at("resources").items().empty());
}

TEST(HtmlReportRender, EmptyReportStillRenders)
{
    const std::string html = renderHtmlReport(HtmlReport{});
    EXPECT_NE(html.find("<!doctype html>"), std::string::npos);
    EXPECT_NE(html.find("Schedule Explorer"), std::string::npos);
    EXPECT_EQ(html.find("http://"), std::string::npos);
    EXPECT_EQ(html.find("https://"), std::string::npos);
}

} // namespace
} // namespace so::report
