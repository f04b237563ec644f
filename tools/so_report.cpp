/**
 * @file
 * `so-report` — differential-profiling and bench-guard front end.
 *
 * Subcommands:
 *   so-report diff BEFORE.json AFTER.json [--cell SEL] [--cell-b SEL]
 *             [--top K] [--json]
 *       Attribute the makespan delta between two profiled runs to
 *       schedule phases and idle causes. Inputs may be profile
 *       documents (*.profile.json), planner reports, result JSON, or
 *       sweep/bench records (select a cell with --cell; --cell-b
 *       selects in AFTER when the two records need different cells).
 *   so-report diff FILE.json --cell SEL --cell-b SEL
 *       Same, but both sides come from one sweep/bench record — e.g.
 *       zero-offload vs superoffload on one grid cell.
 *   so-report check FRESH.json --baseline BASE.json [--tolerance T]
 *             [--tol PATH=T ...] [--out VERDICT.json]
 *             [--history FILE] [--warn-only]
 *       Guard a fresh BENCH_*.json record against a committed
 *       baseline; exit 1 on regression unless --warn-only.
 *   so-report top FILE.json [--cell SEL] [--top K]
 *       Largest critical-path phases and idle causes of one run.
 *   so-report html INPUT.json ... [--trace-dir DIR] [--history FILE]
 *             [--verdict FILE] [--title T] [--out report.html]
 *       Render any mix of artifacts — inspection bundles, profile
 *       documents, sweep/bench records, diff JSON, verdicts, history
 *       files — as one self-contained HTML Schedule Explorer page.
 *       Inputs are classified by shape; --trace-dir scans a harness
 *       trace directory for *.bundle.json and *.profile.json.
 *   so-report query FILE ... [--phase P] [--resource R] [--begin S]
 *             [--end S] [--top N] [--rank duration|slack|joules]
 *             [--json]
 *       Single-pass streaming aggregation over bundle shards
 *       (*.bundle.jsonl), Chrome traces, and inline inspection
 *       bundles: filter spans by phase / resource / time window, roll
 *       up busy seconds per phase and resource, and list the top-N
 *       spans. Memory stays O(groups + N) no matter how many million
 *       spans the inputs hold (docs/OBSERVABILITY.md).
 *
 * Documents carrying a `schema_version` newer than this build's
 * so::kSchemaVersion draw a warning but are still read: newer writers
 * only add fields.
 *
 * A command line that breaks its subcommand's declared flags, or lacks
 * an input or --baseline, exits so::kUsageError (64); a run that fails
 * (an unreadable input, a failed write, a regression) exits 1.
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/argparse.h"
#include "common/file.h"
#include "common/json.h"
#include "common/schema.h"
#include "common/trace.h"
#include "report/diff.h"
#include "report/history.h"
#include "report/html.h"
#include "report/query.h"

namespace {

using namespace so;

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "so-report: explain schedule deltas and guard bench baselines\n"
        "  so-report diff BEFORE.json AFTER.json [--cell SEL] "
        "[--cell-b SEL] [--top K] [--json]\n"
        "  so-report diff FILE.json --cell SEL --cell-b SEL\n"
        "  so-report check FRESH.json --baseline BASE.json "
        "[--tolerance T] [--tol PATH=T]\n"
        "            [--out VERDICT.json] [--history FILE] "
        "[--warn-only]\n"
        "  so-report top FILE.json [--cell SEL] [--top K] "
        "[--metric time|energy]\n"
        "  so-report html INPUT.json ... [--trace-dir DIR] "
        "[--history FILE]\n"
        "            [--verdict FILE] [--title T] "
        "[--out report.html]\n"
        "  so-report selftrace TRACE.json [--top K]\n"
        "  so-report query FILE ... [--phase P] [--resource R] "
        "[--begin S] [--end S]\n"
        "            [--top N] [--rank duration|slack|joules] "
        "[--json]\n"
        "Inputs: profile documents, planner reports, result JSON, or\n"
        "sweep/bench records (--cell selects by index, system, or "
        "tag).\n"
        "selftrace reads a host self-trace (--self-trace / SO_TRACE,\n"
        "see docs/SELFTRACE.md) or its .selfprofile.json summary.\n"
        "query streams *.bundle.jsonl shards, Chrome traces, and\n"
        "inspection bundles in one bounded-memory pass.\n");
    return out == stdout ? 0 : kUsageError;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "so-report: cannot read %s\n",
                     path.c_str());
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/**
 * Forward-compatibility warning: a document stamped with a newer
 * schema_version than this build knows is still readable (writers only
 * add fields), so readers warn instead of failing.
 */
void
warnUnknownSchema(const std::string &path, const JsonValue &doc)
{
    if (!doc.isObject())
        return;
    const JsonValue *version = doc.find("schema_version");
    if (version && version->isNumber() &&
        version->number() > static_cast<double>(kSchemaVersion))
        std::fprintf(stderr,
                     "so-report: warning: %s has schema_version %.0f, "
                     "newer than this build's %lld; reading anyway\n",
                     path.c_str(), version->number(),
                     static_cast<long long>(kSchemaVersion));
}

bool
parseFile(const std::string &path, JsonValue &doc)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    std::string error;
    if (!JsonValue::parse(text, doc, &error)) {
        std::fprintf(stderr, "so-report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    warnUnknownSchema(path, doc);
    return true;
}

bool
loadView(const std::string &path, const std::string &cell,
         report::ProfileView &view)
{
    JsonValue doc;
    if (!parseFile(path, doc))
        return false;
    view.label = cell.empty() ? path : path + ":" + cell;
    std::string error;
    if (!report::viewFromJson(doc, view, &error, cell)) {
        std::fprintf(stderr, "so-report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    return true;
}

int
cmdDiff(const ArgParser &args)
{
    const std::vector<std::string> &files = args.positional();
    if (files.empty())
        return usage(stderr);
    const std::string cell_a = args.get("cell");
    const std::string cell_b = args.get("cell-b", cell_a);
    if (files.size() == 1 && (!args.has("cell") || !args.has("cell-b")))
        usageError("so-report: diffing within one record needs both "
                   "--cell and --cell-b");

    report::ProfileView before, after;
    if (!loadView(files.front(), cell_a, before) ||
        !loadView(files.back(), cell_b, after))
        return 1;
    report::ProfileDiff diff = report::diffProfiles(before, after);
    const std::size_t top_k = args.count("top", 64);
    if (diff.phases.size() > top_k)
        diff.phases.resize(top_k);
    if (args.has("json"))
        std::printf("%s\n", report::diffToJson(diff).c_str());
    else
        std::printf("%s", report::diffToText(diff).c_str());
    return 0;
}

int
cmdCheck(const ArgParser &args)
{
    const std::vector<std::string> &files = args.positional();
    if (files.size() != 1 || !args.has("baseline"))
        return usage(stderr);
    const std::string fresh_path = files[0];
    const std::string baseline_path = args.get("baseline");

    report::CheckOptions options;
    if (args.has("tolerance") &&
        !report::parseTolerance(args.get("tolerance"), options.tolerance))
        usageError("so-report: --tolerance " + args.get("tolerance") +
                   ": must be a finite number >= 0");
    for (const std::string &spec : args.all("tol")) {
        const std::size_t eq = spec.rfind('=');
        if (eq == std::string::npos)
            usageError("so-report: --tol expects PATH=TOLERANCE");
        double tolerance = 0.0;
        if (!report::parseTolerance(spec.substr(eq + 1), tolerance))
            usageError("so-report: --tol " + spec +
                       ": TOLERANCE must be a finite number >= 0");
        options.overrides[spec.substr(0, eq)] = tolerance;
    }

    JsonValue fresh, baseline;
    if (!parseFile(fresh_path, fresh) ||
        !parseFile(baseline_path, baseline))
        return 1;

    const report::CheckVerdict verdict =
        report::checkAgainstBaseline(baseline, fresh, options);
    std::printf("%s vs %s\n%s\n", fresh_path.c_str(),
                baseline_path.c_str(), verdict.summary().c_str());

    if (args.has("out")) {
        const std::string out_path = args.get("out");
        if (!writeFile(out_path, {verdict.json(), "\n"})) {
            std::fprintf(stderr, "so-report: cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        std::printf("verdict written to %s\n", out_path.c_str());
    }
    if (args.has("history")) {
        report::BenchHistory history(args.get("history"));
        std::string text, error;
        if (!readFile(fresh_path, text) ||
            !history.append(text, &error)) {
            std::fprintf(stderr, "so-report: history: %s\n",
                         error.c_str());
            return 1;
        }
        std::printf("record appended to %s\n", history.path().c_str());
    }
    if (!verdict.pass && !args.has("warn-only"))
        return 1;
    return 0;
}

int
cmdTop(const ArgParser &args)
{
    const std::vector<std::string> &files = args.positional();
    if (files.size() != 1)
        return usage(stderr);
    report::ProfileView view;
    if (!loadView(files[0], args.get("cell"), view))
        return 1;
    const std::size_t top_k = args.count("top", 8);

    if (args.get("metric") == "energy") {
        if (!view.has_energy) {
            std::fprintf(stderr,
                         "so-report: %s carries no energy "
                         "attribution (schema_version < 2 or "
                         "profile-free input)\n",
                         view.label.c_str());
            return 1;
        }
        std::printf("%s: total %.3f J over %.6f s (avg %.1f W)\n",
                    view.label.c_str(), view.energy_j, view.makespan,
                    view.makespan > 0.0
                        ? view.energy_j / view.makespan
                        : 0.0);
        std::printf("task joules per phase (largest first; active "
                    "joules, %% of total):\n");
        std::vector<report::PhaseSlice> phases = view.energy_phases;
        std::sort(phases.begin(), phases.end(),
                  [](const report::PhaseSlice &a,
                     const report::PhaseSlice &b) {
                      if (a.seconds != b.seconds)
                          return a.seconds > b.seconds;
                      return a.phase < b.phase;
                  });
        for (std::size_t i = 0; i < phases.size() && i < top_k; ++i)
            std::printf("  %-20s %10.3f J  %5.1f%%\n",
                        phases[i].phase.c_str(), phases[i].seconds,
                        view.energy_j > 0.0
                            ? 100.0 * phases[i].seconds / view.energy_j
                            : 0.0);
        return 0;
    }

    std::printf("%s: makespan %.6f s\n", view.label.c_str(),
                view.makespan);
    std::printf("critical-path phases (largest first):\n");
    std::vector<report::PhaseSlice> phases = view.phases;
    std::sort(phases.begin(), phases.end(),
              [](const report::PhaseSlice &a,
                 const report::PhaseSlice &b) {
                  if (a.seconds != b.seconds)
                      return a.seconds > b.seconds;
                  return a.phase < b.phase;
              });
    for (std::size_t i = 0; i < phases.size() && i < top_k; ++i)
        std::printf("  %-20s %10.6f s  %5.1f%%\n",
                    phases[i].phase.c_str(), phases[i].seconds,
                    view.makespan > 0.0
                        ? 100.0 * phases[i].seconds / view.makespan
                        : 0.0);
    if (!view.resources.empty()) {
        std::printf("idle causes per resource (seconds):\n");
        std::printf("  %-12s %10s %10s %10s %10s\n", "resource",
                    "busy", "dependency", "contention", "tail");
        for (const report::ResourceSlice &res : view.resources)
            std::printf("  %-12s %10.6f %10.6f %10.6f %10.6f\n",
                        res.resource.c_str(), res.busy, res.dependency,
                        res.contention, res.tail);
    }
    return 0;
}

/**
 * One summarized category/worker row of a host self-trace, accumulated
 * from either a Chrome trace's events or a self-profile document.
 */
struct SelftraceSummary
{
    double wall_s = 0.0;
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
    /** name -> (count, seconds), printed largest-seconds first. */
    std::vector<std::pair<std::string, std::pair<std::uint64_t, double>>>
        categories;
    struct Worker
    {
        std::int64_t tid = 0;
        std::uint64_t jobs = 0;
        double busy_s = 0.0;
    };
    std::vector<Worker> workers;
    std::uint64_t wait_count = 0;
    double wait_mean = 0.0, wait_p50 = 0.0, wait_p95 = 0.0;
};

void
bumpCategory(SelftraceSummary &sum, const std::string &name,
             std::uint64_t count, double seconds)
{
    for (auto &cat : sum.categories) {
        if (cat.first == name) {
            cat.second.first += count;
            cat.second.second += seconds;
            return;
        }
    }
    sum.categories.emplace_back(name, std::make_pair(count, seconds));
}

/**
 * Summarize a host Chrome trace (trace::toChromeTrace output): walk the
 * complete events, fold durations per category and per worker, and
 * take the queue-wait mean and percentiles over the jobs' args with
 * trace::quantile, the rule the self-profile document uses.
 */
bool
summarizeChromeTrace(const JsonValue &doc, SelftraceSummary &sum)
{
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return false;
    std::vector<double> waits;
    double wait_sum = 0.0;
    double t_min = 0.0, t_max = 0.0;
    bool seen = false;
    std::map<std::int64_t, SelftraceSummary::Worker> workers;
    for (const JsonValue &ev : events->items()) {
        if (!ev.isObject())
            continue;
        const JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString())
            continue;
        const JsonValue *args = ev.find("args");
        if (ph->text() == "C") {
            // dropped_spans counters (ring overflow).
            if (args && args->isObject()) {
                const JsonValue *d = args->find("dropped");
                if (std::uint64_t dropped = 0; d && d->asInteger(dropped))
                    sum.dropped += dropped;
            }
            continue;
        }
        if (ph->text() != "X")
            continue;
        const JsonValue *ts = ev.find("ts");
        const JsonValue *dur = ev.find("dur");
        const JsonValue *cat = ev.find("cat");
        const JsonValue *name = ev.find("name");
        const JsonValue *tid = ev.find("tid");
        if (!ts || !ts->isNumber() || !dur || !dur->isNumber())
            continue;
        const double t0 = ts->number() / 1e6;
        const double len = dur->number() / 1e6;
        t_min = seen ? std::min(t_min, t0) : t0;
        t_max = seen ? std::max(t_max, t0 + len) : t0 + len;
        seen = true;
        ++sum.spans;
        bumpCategory(sum,
                     cat && cat->isString() ? cat->text() : "other", 1,
                     len);
        std::int64_t worker_tid = 0;
        if (name && name->isString() && name->text() == "job" && tid &&
            tid->asInteger(worker_tid)) {
            SelftraceSummary::Worker &w = workers[worker_tid];
            w.tid = worker_tid;
            ++w.jobs;
            w.busy_s += len;
            if (args && args->isObject()) {
                const JsonValue *wait = args->find("queue_wait_s");
                if (wait && wait->isNumber()) {
                    waits.push_back(wait->number());
                    wait_sum += wait->number();
                }
            }
        }
    }
    sum.wall_s = seen ? t_max - t_min : 0.0;
    for (const auto &[tid, worker] : workers)
        sum.workers.push_back(worker);
    if (!waits.empty()) {
        sum.wait_count = waits.size();
        sum.wait_mean = wait_sum / static_cast<double>(waits.size());
        sum.wait_p50 = trace::quantile(waits, 0.50);
        sum.wait_p95 = trace::quantile(std::move(waits), 0.95);
    }
    return true;
}

/** Summarize a self-profile document (trace::selfProfileJson). */
bool
summarizeSelfProfile(const JsonValue &doc, SelftraceSummary &sum)
{
    const JsonValue *kind = doc.find("kind");
    if (!kind || !kind->isString() || kind->text() != "self_profile")
        return false;
    if (const JsonValue *v = doc.find("wall_s"); v && v->isNumber())
        sum.wall_s = v->number();
    if (const JsonValue *v = doc.find("spans"))
        v->asInteger(sum.spans);
    if (const JsonValue *v = doc.find("dropped"))
        v->asInteger(sum.dropped);
    if (const JsonValue *cats = doc.find("categories");
        cats && cats->isObject()) {
        for (const auto &[name, cat] : cats->members()) {
            if (!cat.isObject())
                continue;
            const JsonValue *count = cat.find("count");
            const JsonValue *total = cat.find("total_s");
            std::uint64_t n = 0;
            if (count)
                count->asInteger(n);
            bumpCategory(sum, name, n,
                         total && total->isNumber() ? total->number()
                                                    : 0.0);
        }
    }
    if (const JsonValue *workers = doc.find("workers");
        workers && workers->isArray()) {
        for (const JsonValue &w : workers->items()) {
            if (!w.isObject())
                continue;
            SelftraceSummary::Worker worker;
            if (const JsonValue *v = w.find("tid"))
                v->asInteger(worker.tid);
            if (const JsonValue *v = w.find("jobs"))
                v->asInteger(worker.jobs);
            if (const JsonValue *v = w.find("busy_s");
                v && v->isNumber())
                worker.busy_s = v->number();
            sum.workers.push_back(worker);
        }
    }
    if (const JsonValue *wait = doc.find("queue_wait");
        wait && wait->isObject()) {
        if (const JsonValue *v = wait->find("count"))
            v->asInteger(sum.wait_count);
        if (const JsonValue *v = wait->find("mean_s"); v && v->isNumber())
            sum.wait_mean = v->number();
        if (const JsonValue *v = wait->find("p50_s"); v && v->isNumber())
            sum.wait_p50 = v->number();
        if (const JsonValue *v = wait->find("p95_s"); v && v->isNumber())
            sum.wait_p95 = v->number();
    }
    return true;
}

int
cmdSelftrace(const ArgParser &args)
{
    const std::vector<std::string> &files = args.positional();
    if (files.size() != 1)
        return usage(stderr);
    JsonValue doc;
    if (!parseFile(files[0], doc))
        return 1;
    SelftraceSummary sum;
    if (!doc.isObject() || (!summarizeChromeTrace(doc, sum) &&
                            !summarizeSelfProfile(doc, sum))) {
        std::fprintf(stderr,
                     "so-report: %s is neither a host Chrome trace "
                     "(traceEvents) nor a self_profile document\n",
                     files[0].c_str());
        return 1;
    }

    std::printf("%s: wall %.6f s, %llu span(s)", files[0].c_str(),
                sum.wall_s,
                static_cast<unsigned long long>(sum.spans));
    if (sum.dropped > 0)
        std::printf(", %llu dropped (ring overflow)",
                    static_cast<unsigned long long>(sum.dropped));
    std::printf("\n");

    const std::size_t top_k = args.count("top", 10);
    std::sort(sum.categories.begin(), sum.categories.end(),
              [](const auto &a, const auto &b) {
                  if (a.second.second != b.second.second)
                      return a.second.second > b.second.second;
                  return a.first < b.first;
              });
    // Inclusive: nested spans (pool > sweep > sim) each count their
    // full duration, so the shares can sum past 100%.
    std::printf("inclusive wall time by category (nested spans overlap; "
                "largest first):\n");
    for (std::size_t i = 0;
         i < sum.categories.size() && i < top_k; ++i) {
        const auto &cat = sum.categories[i];
        std::printf("  %-12s %10.6f s  %8llu span(s)  %5.1f%%\n",
                    cat.first.c_str(), cat.second.second,
                    static_cast<unsigned long long>(cat.second.first),
                    sum.wall_s > 0.0
                        ? 100.0 * cat.second.second / sum.wall_s
                        : 0.0);
    }
    if (!sum.workers.empty()) {
        std::printf("worker utilization (ThreadPool jobs):\n");
        std::printf("  %-8s %10s %12s %8s\n", "worker", "jobs",
                    "busy", "busy%");
        for (const SelftraceSummary::Worker &w : sum.workers)
            std::printf("  t%-7lld %10llu %10.6f s %7.1f%%\n",
                        static_cast<long long>(w.tid),
                        static_cast<unsigned long long>(w.jobs),
                        w.busy_s,
                        sum.wall_s > 0.0
                            ? 100.0 * w.busy_s / sum.wall_s
                            : 0.0);
    }
    if (sum.wait_count > 0)
        std::printf("queue wait over %llu job(s): mean %.6f s, "
                    "p50 %.6f s, p95 %.6f s\n",
                    static_cast<unsigned long long>(sum.wait_count),
                    sum.wait_mean, sum.wait_p50, sum.wait_p95);
    return 0;
}

int
cmdQuery(const ArgParser &args)
{
    const std::vector<std::string> &files = args.positional();
    if (files.empty())
        return usage(stderr);

    report::QueryOptions options;
    options.phase = args.get("phase");
    options.resource = args.get("resource");
    // The window needs a finite --begin and an --end past it; --end inf
    // is the unbounded default.
    options.begin_s = args.number("begin", options.begin_s);
    options.end_s = args.number("end", options.end_s);
    if (!std::isfinite(options.begin_s) ||
        !(options.end_s > options.begin_s))
        usageError("so-report: query: --begin " + args.get("begin", "0") +
                   " --end " + args.get("end", "inf") +
                   ": the window needs a finite --begin and a later --end");
    options.top_n = args.count("top", 10);
    const std::string rank = args.get("rank");
    if (rank == "slack")
        options.rank = report::QueryOptions::Rank::Slack;
    else if (rank == "joules")
        options.rank = report::QueryOptions::Rank::Joules;

    report::QueryResult result;
    std::string error;
    if (!report::queryFiles(files, options, result, &error)) {
        std::fprintf(stderr, "so-report: query: %s\n", error.c_str());
        return 1;
    }
    if (args.has("json"))
        std::printf("%s\n",
                    report::queryToJson(result, options).c_str());
    else
        std::printf("%s",
                    report::queryToText(result, options).c_str());
    return 0;
}

/**
 * Drop @p path's document into the section of @p page its shape
 * matches: inspection bundle, profile, self-profile, diff, verdict, or
 * (the default) a record. Returns false only when the file cannot be
 * read/parsed.
 */
bool
classifyInput(const std::string &path, report::HtmlReport &page)
{
    std::string text;
    if (!readFile(path, text))
        return false;
    if (path.ends_with(".jsonl")) {
        page.history_jsonl += text;
        if (!text.empty() && text.back() != '\n')
            page.history_jsonl += '\n';
        return true;
    }
    JsonValue doc;
    std::string error;
    if (!JsonValue::parse(text, doc, &error)) {
        std::fprintf(stderr, "so-report: %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    warnUnknownSchema(path, doc);
    const std::string label =
        std::filesystem::path(path).filename().string();
    if (!doc.isObject()) {
        page.records.emplace_back(label, text);
        return true;
    }
    const JsonValue *kind = doc.find("kind");
    if (kind && kind->isString() &&
        kind->text() == "inspection_bundle") {
        page.schedules.push_back(std::move(text));
        return true;
    }
    if (kind && kind->isString() && kind->text() == "self_profile") {
        page.self_profile_json = std::move(text);
        return true;
    }
    if (doc.find("makespan_s") && doc.find("critical_path")) {
        page.profiles.emplace_back(label, std::move(text));
        return true;
    }
    if (doc.find("makespan_delta_s") && doc.find("before") &&
        doc.find("after")) {
        page.diff_json = std::move(text);
        return true;
    }
    if (doc.find("pass") && doc.find("gated") && doc.find("metrics")) {
        page.verdict_json = std::move(text);
        return true;
    }
    page.records.emplace_back(label, std::move(text));
    return true;
}

int
cmdHtml(const ArgParser &args)
{
    report::HtmlReport page;
    page.title = args.get("title", "Schedule Explorer");
    for (const std::string &file : args.positional())
        if (!classifyInput(file, page))
            return 1;

    if (args.has("trace-dir")) {
        const std::filesystem::path dir = args.get("trace-dir");
        std::error_code ec;
        std::vector<std::string> found;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir, ec))
            found.push_back(entry.path().string());
        if (ec) {
            std::fprintf(stderr, "so-report: cannot scan %s: %s\n",
                         dir.string().c_str(),
                         ec.message().c_str());
            return 1;
        }
        // Sorted so cell ordering is deterministic across platforms.
        std::sort(found.begin(), found.end());
        // Exact suffixes: a `.bundle.jsonl` shard file would otherwise
        // match `.bundle.json` and land in the history as JSONL.
        for (const std::string &path : found) {
            if ((path.ends_with(".bundle.json") ||
                 path.ends_with(".profile.json")) &&
                !classifyInput(path, page))
                return 1;
        }
    }
    if (args.has("history") && !classifyInput(args.get("history"), page))
        return 1;
    if (args.has("verdict") && !classifyInput(args.get("verdict"), page))
        return 1;

    if (page.schedules.empty() && page.profiles.empty() &&
        page.records.empty() && page.history_jsonl.empty() &&
        page.diff_json.empty()) {
        std::fprintf(stderr, "so-report: html: no inputs\n");
        return usage(stderr);
    }

    const std::string out_path = args.get("out", "report.html");
    if (!writeFile(out_path, {report::renderHtmlReport(page)})) {
        std::fprintf(stderr, "so-report: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::printf("report written to %s\n", out_path.c_str());
    return 0;
}

/** One subcommand: its name, its flags, its input count and its body. */
struct Subcommand
{
    const char *name;
    std::vector<Flag> flags;
    std::size_t max_inputs;
    int (*run)(const ArgParser &);
};

/** Every subcommand main() dispatches on, with its declared flags. */
std::vector<Subcommand>
subcommands()
{
    using enum ArgKind;
    constexpr std::size_t kAny = SIZE_MAX;
    const Flag json{.name = "json", .kind = Switch};
    const Flag top{.name = "top", .kind = Count1};
    const Flag cell{.name = "cell"}, out{.name = "out"};
    const Flag history{.name = "history"};
    return {
        {"diff", {cell, {.name = "cell-b"}, top, json}, 2, cmdDiff},
        {"check",
         {{.name = "baseline"}, {.name = "tolerance", .kind = Number},
          {.name = "tol"}, out, history,
          {.name = "warn-only", .kind = Switch}},
         1, cmdCheck},
        {"top",
         {cell, top,
          {.name = "metric", .kind = Word, .words = {"time", "energy"}}},
         1, cmdTop},
        {"html",
         {{.name = "trace-dir"}, history, {.name = "verdict"},
          {.name = "title"}, out},
         kAny, cmdHtml},
        {"selftrace", {top}, 1, cmdSelftrace},
        {"query",
         {{.name = "phase"}, {.name = "resource"},
          {.name = "begin", .kind = Number}, {.name = "end", .kind = Number},
          {.name = "top", .kind = Count0},
          {.name = "rank", .kind = Word,
           .words = {"duration", "slack", "joules"}},
          json},
         kAny, cmdQuery},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    so::trace::initFromEnv();
    if (argc < 2)
        return usage(stderr);
    const std::string command = argv[1];
    if (command == "--help")
        return usage(stdout);
    std::vector<Subcommand> table = subcommands();
    for (Subcommand &sub : table) {
        if (command != sub.name)
            continue;
        sub.flags.push_back({.name = "help", .kind = ArgKind::Switch});
        // argv[1], the subcommand, stands where the program name was.
        const ArgParser args(argc - 1, argv + 1, std::move(sub.flags),
                             sub.max_inputs);
        if (!args.error().empty())
            usageError("so-report: " + args.error());
        if (args.has("help"))
            return usage(stdout);
        so::trace::Span span(so::trace::Category::Report, sub.name);
        return sub.run(args);
    }
    std::string names;
    for (const Subcommand &sub : table)
        names += (names.empty() ? "" : ", ") + std::string(sub.name);
    std::fprintf(stderr,
                 "so-report: unknown subcommand '%s' (expected one of: "
                 "%s)\n",
                 command.c_str(), names.c_str());
    return usage(stderr);
}
