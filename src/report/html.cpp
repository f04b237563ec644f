#include "report/html.h"

#include "common/json.h"
#include "common/trace.h"
#include "report/html_assets.h"

#include <sstream>

namespace so::report {

namespace {

/**
 * Append a raw JSON document to @p out, or "null" when @p doc is empty
 * or malformed. Re-parsing here keeps the data island valid even when a
 * caller hands us a truncated file: a broken section degrades to an
 * absent one instead of taking the whole page down.
 */
void
appendDocOrNull(std::string &out, const std::string &doc)
{
    JsonValue parsed;
    if (doc.empty() || !JsonValue::parse(doc, parsed))
    {
        out += "null";
        return;
    }
    out += doc;
}

/** Append `"label"` (JSON-escaped) to @p out. */
void
appendJsonString(std::string &out, const std::string &text)
{
    out += '"';
    out += JsonWriter::escape(text);
    out += '"';
}

/**
 * The data island: one JSON object concatenated from the report's raw
 * documents. Assembled by hand because JsonWriter has no raw-insert —
 * every non-literal piece is itself a complete JSON document (validated
 * by appendDocOrNull) or an escaped string, so the concatenation is
 * valid by construction.
 */
std::string
buildDataIsland(const HtmlReport &report)
{
    std::string out;
    out.reserve(4096);
    out += "{\"title\":";
    appendJsonString(out, report.title);

    out += ",\"schedules\":[";
    bool first = true;
    for (const std::string &doc : report.schedules)
    {
        if (!first) out += ',';
        first = false;
        // Oversize bundles become a bounded stub, deliberately without
        // parsing the document first: the whole point of the cap is to
        // never pay O(bundle) work or memory on the page build.
        if (report.max_inline_bundle_bytes != 0 &&
            doc.size() > report.max_inline_bundle_bytes)
        {
            out += "{\"kind\":\"bundle_truncated\",\"bytes\":";
            out += std::to_string(doc.size());
            out += ",\"limit\":";
            out += std::to_string(report.max_inline_bundle_bytes);
            out += '}';
            continue;
        }
        appendDocOrNull(out, doc);
    }
    out += ']';

    out += ",\"profiles\":[";
    first = true;
    for (const auto &[label, doc] : report.profiles)
    {
        if (!first) out += ',';
        first = false;
        out += "{\"label\":";
        appendJsonString(out, label);
        out += ",\"doc\":";
        appendDocOrNull(out, doc);
        out += '}';
    }
    out += ']';

    out += ",\"records\":[";
    first = true;
    for (const auto &[label, doc] : report.records)
    {
        if (!first) out += ',';
        first = false;
        out += "{\"label\":";
        appendJsonString(out, label);
        out += ",\"doc\":";
        appendDocOrNull(out, doc);
        out += '}';
    }
    out += ']';

    out += ",\"history\":[";
    first = true;
    std::istringstream lines(report.history_jsonl);
    std::string line;
    while (std::getline(lines, line))
    {
        JsonValue parsed;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        if (!JsonValue::parse(line, parsed) || !parsed.isObject())
            continue; // malformed history lines are skipped, not fatal
        if (!first) out += ',';
        first = false;
        out += line;
    }
    out += ']';

    out += ",\"verdict\":";
    appendDocOrNull(out, report.verdict_json);
    out += ",\"diff\":";
    appendDocOrNull(out, report.diff_json);
    out += ",\"self_profile\":";
    appendDocOrNull(out, report.self_profile_json);
    out += '}';
    return out;
}

} // namespace

std::string
htmlEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text)
    {
        switch (c)
        {
        case '&': out += "&amp;"; break;
        case '<': out += "&lt;"; break;
        case '>': out += "&gt;"; break;
        case '"': out += "&quot;"; break;
        case '\'': out += "&#39;"; break;
        default: out += c; break;
        }
    }
    return out;
}

std::string
escapeJsonForScript(std::string_view json)
{
    std::string out;
    out.reserve(json.size());
    for (char c : json)
    {
        if (c == '<')
            out += "\\u003c";
        else
            out += c;
    }
    return out;
}

std::string
renderHtmlReport(const HtmlReport &report)
{
    trace::Span span(trace::Category::Render, "explorer-html");
    const std::string title =
        report.title.empty() ? "Schedule Explorer" : report.title;

    std::string out;
    out.reserve(64 * 1024);
    out += "<!doctype html>\n<html lang=\"en\">\n<head>\n";
    out += "<meta charset=\"utf-8\">\n";
    out += "<meta name=\"viewport\" "
           "content=\"width=device-width, initial-scale=1\">\n";
    out += "<title>";
    out += htmlEscape(title);
    out += "</title>\n<style>\n";
    out += assets::kExplorerCss;
    out += "\n</style>\n</head>\n<body>\n<header>\n<h1>";
    out += htmlEscape(title);
    out += "</h1>\n<p class=\"so-generator\">Schedule Explorer &middot; "
           "self-contained report, no external resources</p>\n";
    out += "</header>\n<main id=\"app\"></main>\n";
    out += "<script id=\"so-data\" type=\"application/json\">";
    out += escapeJsonForScript(buildDataIsland(report));
    out += "</script>\n<script>\n";
    out += assets::kExplorerJs;
    out += "\n</script>\n</body>\n</html>\n";
    return out;
}

} // namespace so::report
