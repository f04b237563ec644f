/**
 * @file
 * Schedule Explorer: self-contained HTML report bundles.
 *
 * renderHtmlReport() turns any combination of this library's JSON
 * artifacts — inspection bundles (sim/inspect.h), profile documents
 * (sim::profileToJson), sweep/bench records, `BENCH_history.jsonl`
 * lines, check verdicts (report/history.h), and profile diffs
 * (report/diff.h) — into ONE standalone HTML file: no network fetches,
 * no CDN assets, every byte of markup, style, script, and data inlined.
 * The result is shareable from CI and renders the paper's core visual
 * arguments: the Gantt overlap structure of Figs. 3/8, the idle-cause
 * breakdown of Fig. 4, the utilization sweep of Fig. 15, and the A/B
 * phase attribution behind Figs. 10/11. Bench binaries only write
 * the artifacts (--json, --trace-dir, --self-trace); `so-report html`
 * assembles them into a page, and the planner's --explain-html renders
 * its A/B explainer. See docs/EXPLORER.md for an annotated walkthrough.
 *
 * Safety contract (pinned by tests/report/test_html.cpp): all embedded
 * data is HTML-safe. Task labels are user-controlled strings that may
 * contain quotes, UTF-8, or a literal script-closing tag; the renderer
 * escapes every `<` inside embedded JSON as the JSON escape \u003c so
 * no payload can terminate the data block, and escapes text
 * interpolated into markup with
 * htmlEscape(). The document contains no external references — the
 * self-containment test greps the output for "http://" and "https://".
 */
#ifndef SO_REPORT_HTML_H
#define SO_REPORT_HTML_H

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace so::report {

/**
 * Default byte ceiling on one inlined schedule bundle. A 10M-task
 * bundle is gigabytes of JSON — inlining it would make the page
 * unopenable, so oversize bundles embed a small truncation stub
 * instead and the page points at the bundle-shard drill-down
 * (docs/OBSERVABILITY.md).
 */
inline constexpr std::size_t kDefaultMaxInlineBundleBytes =
    8 * 1024 * 1024;

/**
 * Everything one explorer page can embed. All sections are optional:
 * the renderer emits only the views whose inputs are present, so the
 * same function serves `so-report html` and the planner's
 * --explain-html page.
 */
struct HtmlReport
{
    /** Page title (escaped into <title> and the header). */
    std::string title;

    /**
     * Inspection-bundle JSON documents (sim::bundleToJson), one
     * interactive Gantt section each.
     */
    std::vector<std::string> schedules;

    /**
     * (label, document) pairs of standalone profile JSON
     * (sim::profileToJson): phase-breakdown bar + per-resource
     * busy/idle-cause strips.
     */
    std::vector<std::pair<std::string, std::string>> profiles;

    /**
     * (label, document) pairs of sweep/bench records. Records with a
     * `cells` array render as a system x setup heatmap with per-cell
     * drill-down; any other record renders as a flattened metric
     * table.
     */
    std::vector<std::pair<std::string, std::string>> records;

    /**
     * Raw BENCH_history.jsonl text (one record per line); renders as
     * per-metric sparklines. Malformed lines are skipped.
     */
    std::string history_jsonl;

    /** CheckVerdict JSON; verdicts are inlined into the sparklines. */
    std::string verdict_json;

    /** ProfileDiff JSON (report::diffToJson): the A/B view. */
    std::string diff_json;

    /**
     * Engine self-profile JSON (trace::selfProfileJson): renders as an
     * "Engine" tab — host wall time by category, per-worker busy
     * fractions, queue-wait percentiles, cache latency split. This is
     * the *host* engine view (docs/SELFTRACE.md), distinct from the
     * simulated-schedule views above.
     */
    std::string self_profile_json;

    /**
     * Cap on any single inlined schedule bundle, in bytes (0 =
     * unlimited). A bundle over the cap is replaced by a
     * `{"kind":"bundle_truncated",...}` stub that renders as a visible
     * truncation banner with the offline shard drill-down instead of
     * the full Gantt.
     */
    std::size_t max_inline_bundle_bytes = kDefaultMaxInlineBundleBytes;
};

/** Render @p report as one self-contained HTML document. */
std::string renderHtmlReport(const HtmlReport &report);

/** Escape @p text for interpolation into HTML text content. */
std::string htmlEscape(std::string_view text);

/**
 * Make a JSON document safe for embedding inside a <script> block by
 * escaping every `<` as \u003c (valid JSON can only carry `<` inside
 * string literals, where the escape is equivalent). This is what stops
 * a task label carrying a literal script-closing tag from terminating
 * the data island.
 */
std::string escapeJsonForScript(std::string_view json);

} // namespace so::report

#endif // SO_REPORT_HTML_H
