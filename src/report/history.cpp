#include "report/history.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "common/json.h"

namespace so::report {

namespace {

bool
endsWith(const std::string &text, const char *suffix)
{
    const std::size_t n = std::char_traits<char>::length(suffix);
    return text.size() >= n &&
           text.compare(text.size() - n, n, suffix) == 0;
}

void
writeCompact(JsonWriter &json, const JsonValue &value)
{
    switch (value.kind()) {
    case JsonValue::Kind::Null:
        json.null();
        break;
    case JsonValue::Kind::Bool:
        json.value(value.boolean());
        break;
    case JsonValue::Kind::Number:
        json.value(value.number());
        break;
    case JsonValue::Kind::String:
        json.value(value.text());
        break;
    case JsonValue::Kind::Array:
        json.beginArray();
        for (const JsonValue &item : value.items())
            writeCompact(json, item);
        json.endArray();
        break;
    case JsonValue::Kind::Object:
        json.beginObject();
        for (const auto &[key, member] : value.members()) {
            json.key(key);
            writeCompact(json, member);
        }
        json.endObject();
        break;
    }
}

} // namespace

int
metricDirection(const std::string &path)
{
    if (endsWith(path, "_per_s"))
        return 1;
    // Joules are a cost: less energy per run/iteration/token is
    // better. Watts are a *rate*, not a cost — a faster schedule may
    // legitimately draw more average power while spending fewer
    // joules — so `_w` leaves stay ungated (docs/ENERGY.md).
    if (endsWith(path, "_j") || endsWith(path, "_j_per_iter") ||
        endsWith(path, "_j_per_token"))
        return -1;
    if (endsWith(path, "_w"))
        return 0;
    if (endsWith(path, "_s") || endsWith(path, "_s_mean") ||
        endsWith(path, "_ms"))
        return -1;
    return 0;
}

void
flattenNumericLeaves(const JsonValue &doc, const std::string &prefix,
                     std::vector<std::pair<std::string, double>> &out)
{
    switch (doc.kind()) {
    case JsonValue::Kind::Number:
        out.emplace_back(prefix, doc.number());
        break;
    case JsonValue::Kind::Object:
        for (const auto &[key, member] : doc.members()) {
            // `metrics` is the wall-clock telemetry snapshot that
            // only records from older builds carry (the committed
            // BENCH_*.json files and BENCH_history.jsonl keep theirs);
            // `meta` is provenance (git SHA, hostname, argv). Neither
            // is part of the gated surface.
            if (key == "metrics" || key == "meta")
                continue;
            flattenNumericLeaves(
                member, prefix.empty() ? key : prefix + "." + key, out);
        }
        break;
    case JsonValue::Kind::Array: {
        const std::vector<JsonValue> &items = doc.items();
        for (std::size_t i = 0; i < items.size(); ++i)
            flattenNumericLeaves(
                items[i], prefix + "[" + std::to_string(i) + "]", out);
        break;
    }
    default:
        break;
    }
}

bool
parseTolerance(const std::string &text, double &value)
{
    char *end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(parsed) ||
        parsed < 0.0)
        return false;
    value = parsed;
    return true;
}

CheckVerdict
checkAgainstBaseline(const JsonValue &baseline, const JsonValue &fresh,
                     const CheckOptions &options)
{
    CheckVerdict verdict;
    verdict.tolerance = options.tolerance;

    std::vector<std::pair<std::string, double>> base_flat, fresh_flat;
    flattenNumericLeaves(baseline, "", base_flat);
    flattenNumericLeaves(fresh, "", fresh_flat);
    verdict.checked = fresh_flat.size();

    std::map<std::string, double> fresh_by_path(fresh_flat.begin(),
                                                fresh_flat.end());
    for (const auto &[path, base_value] : base_flat) {
        const int direction = metricDirection(path);
        if (direction == 0)
            continue;
        MetricDelta delta;
        delta.path = path;
        delta.baseline = base_value;
        delta.direction = direction;
        delta.gated = true;
        ++verdict.gated;
        const auto override_it = options.overrides.find(path);
        const double tolerance = override_it != options.overrides.end()
                                     ? override_it->second
                                     : options.tolerance;
        const auto fresh_it = fresh_by_path.find(path);
        if (fresh_it == fresh_by_path.end()) {
            // A gated metric vanishing from the record is itself a
            // regression: the guard would otherwise go blind silently.
            delta.missing = true;
            delta.regressed = true;
            verdict.pass = false;
        } else {
            delta.fresh = fresh_it->second;
            delta.rel_change =
                (delta.fresh - base_value) /
                std::max(std::abs(base_value), 1e-12);
            delta.regressed =
                (direction > 0 && delta.rel_change < -tolerance) ||
                (direction < 0 && delta.rel_change > tolerance);
            if (delta.regressed)
                verdict.pass = false;
        }
        verdict.metrics.push_back(std::move(delta));
    }
    return verdict;
}

std::vector<std::string>
CheckVerdict::regressions() const
{
    std::vector<std::string> out;
    for (const MetricDelta &delta : metrics)
        if (delta.regressed)
            out.push_back(delta.path);
    return out;
}

std::string
CheckVerdict::json() const
{
    JsonWriter json;
    json.beginObject();
    json.field("pass", pass);
    json.field("tolerance", tolerance);
    json.field("checked", static_cast<std::uint64_t>(checked));
    json.field("gated", static_cast<std::uint64_t>(gated));
    json.key("regressions").beginArray();
    for (const std::string &path : regressions())
        json.value(path);
    json.endArray();
    json.key("metrics").beginArray();
    for (const MetricDelta &delta : metrics) {
        json.beginObject();
        json.field("path", delta.path);
        json.field("baseline", delta.baseline);
        if (!delta.missing) {
            json.field("fresh", delta.fresh);
            json.field("rel_change", delta.rel_change);
        }
        json.field("direction", static_cast<std::int64_t>(delta.direction));
        json.field("regressed", delta.regressed);
        if (delta.missing)
            json.field("missing", true);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

std::string
CheckVerdict::summary() const
{
    char buf[160];
    const std::vector<std::string> bad = regressions();
    if (pass) {
        std::snprintf(buf, sizeof(buf),
                      "pass: %zu gated metric(s) within ±%.0f%% of the "
                      "baseline (%zu numeric leaves checked)",
                      gated, 100.0 * tolerance, checked);
        return buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "REGRESSED: %zu of %zu gated metric(s) beyond ±%.0f%%:",
                  bad.size(), gated, 100.0 * tolerance);
    std::string out = buf;
    for (const MetricDelta &delta : metrics) {
        if (!delta.regressed)
            continue;
        if (delta.missing) {
            out += "\n  " + delta.path + ": missing from fresh record";
        } else {
            std::snprintf(buf, sizeof(buf), "\n  %s: %g -> %g (%+.1f%%)",
                          delta.path.c_str(), delta.baseline,
                          delta.fresh, 100.0 * delta.rel_change);
            out += buf;
        }
    }
    return out;
}

std::string
compactJson(const JsonValue &value)
{
    JsonWriter json;
    writeCompact(json, value);
    return json.str();
}

BenchHistory::BenchHistory(std::string path) : path_(std::move(path)) {}

bool
BenchHistory::append(const std::string &record_json, std::string *error)
{
    JsonValue doc;
    std::string parse_error;
    if (!JsonValue::parse(record_json, doc, &parse_error)) {
        if (error)
            *error = "record is not valid JSON: " + parse_error;
        return false;
    }
    std::ofstream out(path_, std::ios::app);
    if (!out) {
        if (error)
            *error = "cannot open " + path_ + " for appending";
        return false;
    }
    out << compactJson(doc) << '\n';
    if (!out) {
        if (error)
            *error = "write to " + path_ + " failed";
        return false;
    }
    return true;
}

} // namespace so::report
