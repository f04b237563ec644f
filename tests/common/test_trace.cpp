/**
 * @file
 * Pins the so::trace contract (docs/SELFTRACE.md): exact drop counts on
 * ring overflow, nothing recorded while disabled, deterministic
 * (t0, tid) merge order, always-valid heartbeat JSON under concurrent
 * rewrite, the ETA clamping rule, and the schema of both export
 * documents.
 */
#include "common/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/schema.h"
#include "common/thread_pool.h"

namespace so::trace {
namespace {

/** RAII: enable tracing on a clean slate, restore and clear after. */
class TraceScope
{
  public:
    TraceScope()
    {
        clearAll();
        setEnabled(true);
    }
    ~TraceScope()
    {
        setEnabled(false);
        clearAll();
        setRingCapacity(65536);
    }
};

TEST(Trace, DisabledRecordsNothing)
{
    clearAll();
    setEnabled(false);
    for (int i = 0; i < 100; ++i) {
        Span span(Category::Sim, "noop");
        span.arg("x", 1.0);
    }
    const CollectedTrace trace = collect();
    EXPECT_TRUE(trace.spans.empty());
    EXPECT_EQ(trace.dropped, 0u);
    for (std::size_t c = 0; c < kCategoryCount; ++c)
        EXPECT_EQ(trace.category_count[c], 0u);
}

TEST(Trace, SpansCarryCategoryNameAndArgs)
{
    TraceScope scope;
    {
        Span span(Category::Sweep, "cache-probe");
        span.arg("hit", 1.0);
    }
    const CollectedTrace trace = collect();
    ASSERT_EQ(trace.spans.size(), 1u);
    const SpanRecord &rec = trace.spans[0];
    EXPECT_EQ(rec.category, Category::Sweep);
    EXPECT_STREQ(rec.name, "cache-probe");
    EXPECT_GE(rec.t1, rec.t0);
    ASSERT_NE(rec.arg_key[0], nullptr);
    EXPECT_STREQ(rec.arg_key[0], "hit");
    EXPECT_EQ(rec.arg_val[0], 1.0);
    EXPECT_EQ(rec.arg_key[1], nullptr);
    const std::size_t sweep = static_cast<std::size_t>(Category::Sweep);
    EXPECT_EQ(trace.category_count[sweep], 1u);
    EXPECT_GE(trace.category_s[sweep], 0.0);
}

TEST(Trace, RingOverflowSetsExactDropCounts)
{
    // The calling thread's buffer was created with the default
    // capacity, so overflow the *exact accumulators* contract instead:
    // record far more spans than any moment needs and check the drop
    // arithmetic on a thread whose ring is tiny.
    clearAll();
    setRingCapacity(16);
    setEnabled(true);
    std::uint32_t child_tid = 0;
    std::thread child([&child_tid] {
        child_tid = currentTid();
        for (int i = 0; i < 100; ++i)
            Span(Category::Other, "tick").end();
    });
    child.join();
    setEnabled(false);
    setRingCapacity(65536);

    const CollectedTrace trace = collect();
    // 100 recorded, at most 16 retained: exactly 84 dropped, and the
    // per-tid breakdown names the child thread.
    std::uint64_t child_dropped = 0;
    for (const auto &[tid, dropped] : trace.dropped_by_tid)
        if (tid == child_tid)
            child_dropped = dropped;
    EXPECT_EQ(child_dropped, 84u);
    EXPECT_GE(trace.dropped, 84u);
    // The exact accumulators survive the wrap.
    const std::size_t other = static_cast<std::size_t>(Category::Other);
    EXPECT_EQ(trace.category_count[other], 100u);
    std::size_t retained = 0;
    for (const SpanRecord &rec : trace.spans)
        if (rec.tid == child_tid)
            ++retained;
    EXPECT_EQ(retained, 16u);
    clearAll();
}

TEST(Trace, CollectMergesDeterministicallyByT0ThenTid)
{
    TraceScope scope;
    // Several threads record concurrently; collect() must produce one
    // globally sorted sequence, stable across repeated collects.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([] {
            for (int i = 0; i < 50; ++i)
                Span(Category::Pool, "job").end();
        });
    for (std::thread &t : threads)
        t.join();
    const CollectedTrace a = collect();
    ASSERT_EQ(a.spans.size(), 200u);
    for (std::size_t i = 1; i < a.spans.size(); ++i) {
        const SpanRecord &prev = a.spans[i - 1];
        const SpanRecord &cur = a.spans[i];
        EXPECT_TRUE(prev.t0 < cur.t0 ||
                    (prev.t0 == cur.t0 && prev.tid <= cur.tid))
            << "spans out of (t0, tid) order at " << i;
    }
    // Deterministic: a second snapshot of the same state is identical.
    const CollectedTrace b = collect();
    ASSERT_EQ(b.spans.size(), a.spans.size());
    for (std::size_t i = 0; i < a.spans.size(); ++i) {
        EXPECT_EQ(a.spans[i].t0, b.spans[i].t0);
        EXPECT_EQ(a.spans[i].tid, b.spans[i].tid);
        EXPECT_STREQ(a.spans[i].name, b.spans[i].name);
    }
}

TEST(Trace, ChromeTraceParsesAndUsesHostPid)
{
    TraceScope scope;
    {
        Span span(Category::Sim, "schedule");
        span.arg("tasks", 128.0);
    }
    const std::string doc = toChromeTrace(collect());
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc, parsed, &error)) << error;
    const JsonValue &events = parsed.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    bool saw_span = false;
    for (const JsonValue &ev : events.items()) {
        // Every event sits on the host pid, never a simulated-resource
        // pid (0..N), so the two traces merge in one viewer.
        EXPECT_EQ(ev.at("pid").number(),
                  static_cast<double>(kHostTracePid));
        const JsonValue *ph = ev.find("ph");
        if (ph && ph->isString() && ph->text() == "X") {
            saw_span = true;
            EXPECT_EQ(ev.at("name").text(), "schedule");
            EXPECT_EQ(ev.at("cat").text(), "sim");
            EXPECT_EQ(ev.at("args").at("tasks").number(), 128.0);
        }
    }
    EXPECT_TRUE(saw_span);
}

TEST(Trace, SelfProfileJsonIsSchemaStamped)
{
    TraceScope scope;
    {
        ThreadPool pool(2);
        for (int i = 0; i < 8; ++i)
            pool.submit([] {});
        pool.wait();
    }
    const std::string doc = selfProfileJson(collect());
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc, parsed, &error)) << error;
    EXPECT_EQ(parsed.at("schema_version").number(),
              static_cast<double>(kSchemaVersion));
    EXPECT_EQ(parsed.at("kind").text(), "self_profile");
    // ThreadPool instrumentation fed the pool category, the per-worker
    // table, and the queue-wait percentiles.
    const JsonValue &pool_cat = parsed.at("categories").at("pool");
    EXPECT_EQ(pool_cat.at("count").number(), 8.0);
    EXPECT_FALSE(parsed.at("workers").items().empty());
    EXPECT_EQ(parsed.at("queue_wait").at("count").number(), 8.0);
    EXPECT_GE(parsed.at("queue_wait").at("p95_s").number(),
              parsed.at("queue_wait").at("p50_s").number() - 1e-12);
}

TEST(Trace, QuantileInterpolatesBetweenOrderStatistics)
{
    // Unsorted input; position q * (n - 1) interpolates linearly
    // between its two neighbouring order statistics.
    const std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantile(values, 0.50), 2.5);
    EXPECT_DOUBLE_EQ(quantile(values, 0.95), 3.85);
    EXPECT_DOUBLE_EQ(quantile(values, 1.0), 4.0);
    EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Trace, EtaClampsUntilMeaningful)
{
    // The pinned clamping rule: done >= 3, elapsed >= 0.5 s,
    // done <= total — anything else is "not estimable".
    EXPECT_LT(etaSeconds(0, 100, 10.0), 0.0);
    EXPECT_LT(etaSeconds(2, 100, 10.0), 0.0);
    EXPECT_LT(etaSeconds(50, 100, 0.4), 0.0);
    EXPECT_LT(etaSeconds(101, 100, 10.0), 0.0);
    // 10 done in 2 s -> 5/s -> 90 remaining -> 18 s.
    EXPECT_DOUBLE_EQ(etaSeconds(10, 100, 2.0), 18.0);
    // Finished: zero remaining.
    EXPECT_DOUBLE_EQ(etaSeconds(100, 100, 2.0), 0.0);
}

TEST(Trace, ProgressSnapshotTracksTicks)
{
    progressBegin(10, 3);
    progressTick();
    progressTick();
    const ProgressSnapshot snap = progressSnapshot();
    EXPECT_TRUE(snap.active);
    EXPECT_EQ(snap.total_units, 10u);
    EXPECT_EQ(snap.done_units, 2u);
    EXPECT_EQ(snap.cached_cells, 3u);
    progressEnd();
    EXPECT_FALSE(progressSnapshot().active);
}

TEST(Trace, ProgressHoldsItsFinalStateAfterEnd)
{
    progressBegin(10, 0);
    for (int i = 0; i < 10; ++i)
        progressTick();
    progressEnd();
    const ProgressSnapshot first = progressSnapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const ProgressSnapshot later = progressSnapshot();
    EXPECT_FALSE(later.active);
    EXPECT_EQ(later.done_units, 10u);
    // Elapsed time stopped at progressEnd(), so the rate holds too.
    EXPECT_EQ(later.elapsed_s, first.elapsed_s);
    EXPECT_EQ(later.rate_per_s, first.rate_per_s);

    // The next batch measures from its own begin again.
    progressBegin(1, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GE(progressSnapshot().elapsed_s, 0.015);
    progressEnd();
}

TEST(Trace, HeartbeatJsonIsCompleteAndStamped)
{
    TraceScope scope;
    progressBegin(5, 1);
    progressTick();
    const std::string doc = heartbeatJson();
    progressEnd();
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(doc, parsed, &error)) << error;
    EXPECT_EQ(parsed.at("schema_version").number(),
              static_cast<double>(kSchemaVersion));
    EXPECT_EQ(parsed.at("kind").text(), "heartbeat");
    EXPECT_TRUE(parsed.at("trace").at("enabled").boolean());
    EXPECT_EQ(parsed.at("progress").at("total_units").number(), 5.0);
    EXPECT_EQ(parsed.at("progress").at("done_units").number(), 1.0);
    EXPECT_TRUE(parsed.at("in_flight").isArray());
    EXPECT_GE(parsed.at("uptime_s").number(), 0.0);
    // The documented shape, member for member (docs/SELFTRACE.md).
    std::vector<std::string> keys;
    for (const auto &member : parsed.members())
        keys.push_back(member.first);
    EXPECT_EQ(keys, (std::vector<std::string>{
                        "schema_version", "kind", "pid", "uptime_s",
                        "rss_bytes", "trace", "progress", "in_flight"}));
}

TEST(Trace, HeartbeatFileIsAlwaysValidJsonUnderConcurrentRewrite)
{
    TraceScope scope;
    const std::string path =
        ::testing::TempDir() + "so_trace_heartbeat.json";
    std::remove(path.c_str());
    // Fast rewrites while a reader polls: write-temp-then-rename means
    // every successful read sees one complete document, never a torn
    // or truncated one.
    startHeartbeat(path, 20);
    int reads = 0;
    for (int attempt = 0; attempt < 200 && reads < 5; ++attempt) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
            continue;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        if (text.empty())
            continue;
        JsonValue parsed;
        std::string error;
        EXPECT_TRUE(JsonValue::parse(text, parsed, &error))
            << "torn heartbeat read: " << error;
        if (parsed.isObject())
            EXPECT_EQ(parsed.at("kind").text(), "heartbeat");
        ++reads;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stopHeartbeat();
    EXPECT_GE(reads, 5) << "heartbeat file never appeared";
    // stopHeartbeat() leaves one final, parseable document behind.
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue parsed;
    EXPECT_TRUE(JsonValue::parse(buf.str(), parsed));
    std::remove(path.c_str());
}

TEST(Trace, WriteExportProducesBothArtifacts)
{
    TraceScope scope;
    Span(Category::Bench, "unit").end();
    const std::string dir = ::testing::TempDir();
    const std::string trace_path = dir + "so_trace_export.json";
    const std::string profile_path =
        dir + "so_trace_export.selfprofile.json";
    std::remove(trace_path.c_str());
    std::remove(profile_path.c_str());
    writeExport(trace_path);

    for (const std::string &path : {trace_path, profile_path}) {
        std::ifstream in(path, std::ios::binary);
        ASSERT_TRUE(in.good()) << path << " missing";
        std::ostringstream buf;
        buf << in.rdbuf();
        JsonValue parsed;
        std::string error;
        EXPECT_TRUE(JsonValue::parse(buf.str(), parsed, &error))
            << path << ": " << error;
    }
    std::remove(trace_path.c_str());
    std::remove(profile_path.c_str());
}

TEST(Trace, CategoryNamesAreStable)
{
    EXPECT_STREQ(categoryName(Category::Pool), "pool");
    EXPECT_STREQ(categoryName(Category::Sweep), "sweep");
    EXPECT_STREQ(categoryName(Category::Sim), "sim");
    EXPECT_STREQ(categoryName(Category::Profile), "profile");
    EXPECT_STREQ(categoryName(Category::Serialize), "serialize");
    EXPECT_STREQ(categoryName(Category::Render), "render");
    EXPECT_STREQ(categoryName(Category::Report), "report");
    EXPECT_STREQ(categoryName(Category::Bench), "bench");
    EXPECT_STREQ(categoryName(Category::Other), "other");
}

TEST(Trace, CurrentTidIsStablePerThread)
{
    const std::uint32_t mine = currentTid();
    EXPECT_EQ(currentTid(), mine);
    std::uint32_t other = mine;
    std::thread child([&other] { other = currentTid(); });
    child.join();
    EXPECT_NE(other, mine);
}

} // namespace
} // namespace so::trace
