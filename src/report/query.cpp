#include "report/query.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/schema.h"
#include "common/trace.h"
#include "sim/trace.h"

namespace so::report {

namespace {

/** One span as normalised from any input format. */
struct SpanRec
{
    std::string label;
    std::string phase;
    std::string resource;
    double start = 0.0;
    double end = 0.0;
    double slack = 0.0;
    double power = 0.0;
    bool has_power = false;
};

double
rankValue(const SpanRec &s, QueryOptions::Rank rank)
{
    switch (rank) {
    case QueryOptions::Rank::Slack:
        return s.slack;
    case QueryOptions::Rank::Joules:
        return s.has_power ? s.power * (s.end - s.start) : 0.0;
    case QueryOptions::Rank::Duration:
        break;
    }
    return s.end - s.start;
}

/** Deterministic total order for the top list. */
bool
outranks(const QuerySpan &a, const QuerySpan &b)
{
    if (a.value != b.value)
        return a.value > b.value;
    if (a.start_s != b.start_s)
        return a.start_s < b.start_s;
    return a.label < b.label;
}

/**
 * Filters + rollups + bounded top-N. Memory is O(phases + resources
 * + top_n) regardless of how many spans stream through.
 */
class Accumulator
{
  public:
    Accumulator(const QueryOptions &options, QueryResult &result)
        : opts_(options), res_(result)
    {
    }

    void
    add(const SpanRec &s)
    {
        ++res_.scanned;
        if (!opts_.phase.empty() && s.phase != opts_.phase)
            return;
        if (!opts_.resource.empty() && s.resource != opts_.resource)
            return;
        // Overlap with the half-open query window.
        const double lo = std::max(s.start, opts_.begin_s);
        const double hi = std::min(s.end, opts_.end_s);
        if (hi <= lo)
            return;
        ++res_.matched;
        res_.busy_s += hi - lo;
        // Joules pro-rated to the clipped part of the span.
        if (s.has_power)
            res_.joules += s.power * (hi - lo);
        QueryAgg &p = by_phase_[s.phase];
        p.seconds += hi - lo;
        ++p.count;
        QueryAgg &r = by_resource_[s.resource];
        r.seconds += hi - lo;
        ++r.count;

        if (opts_.top_n == 0)
            return;
        QuerySpan entry;
        entry.label = s.label;
        entry.phase = s.phase;
        entry.resource = s.resource;
        entry.start_s = s.start;
        entry.end_s = s.end;
        entry.value = rankValue(s, opts_.rank);
        if (top_.size() < opts_.top_n) {
            top_.push_back(std::move(entry));
            std::push_heap(top_.begin(), top_.end(), outranks);
        } else if (outranks(entry, top_.front())) {
            std::pop_heap(top_.begin(), top_.end(), outranks);
            top_.back() = std::move(entry);
            std::push_heap(top_.begin(), top_.end(), outranks);
        }
    }

    /** Move the bounded state into the result, best first. */
    void
    finish()
    {
        auto flatten = [](const std::map<std::string, QueryAgg> &m) {
            std::vector<std::pair<std::string, QueryAgg>> out(m.begin(),
                                                              m.end());
            std::sort(out.begin(), out.end(),
                      [](const auto &a, const auto &b) {
                          if (a.second.seconds != b.second.seconds)
                              return a.second.seconds > b.second.seconds;
                          return a.first < b.first;
                      });
            return out;
        };
        res_.by_phase = flatten(by_phase_);
        res_.by_resource = flatten(by_resource_);
        std::sort_heap(top_.begin(), top_.end(), outranks);
        res_.top = std::move(top_);
    }

  private:
    QueryOptions opts_;
    QueryResult &res_;
    std::map<std::string, QueryAgg> by_phase_;
    std::map<std::string, QueryAgg> by_resource_;
    /** Min-heap on outranks: front is the weakest retained span. */
    std::vector<QuerySpan> top_;
};

const JsonValue *
member(const JsonValue &obj, const char *key)
{
    return obj.isObject() ? obj.find(key) : nullptr;
}

bool
numField(const JsonValue &obj, const char *key, double &out)
{
    const JsonValue *v = member(obj, key);
    if (v == nullptr || !v->isNumber())
        return false;
    out = v->number();
    return true;
}

bool
strField(const JsonValue &obj, const char *key, std::string &out)
{
    const JsonValue *v = member(obj, key);
    if (v == nullptr || !v->isString())
        return false;
    out = v->text();
    return true;
}

/** Resolve a task's resource member (index into names, or a name). */
std::string
resourceName(const JsonValue &task,
             const std::vector<std::string> &names)
{
    const JsonValue *v = member(task, "resource");
    if (v == nullptr)
        return "(unknown)";
    if (v->isString())
        return v->text();
    if (std::uint64_t idx = 0; v->asInteger(idx)) {
        if (idx < names.size())
            return names[idx];
        // Prepended in place: GCC 12 flags `"#" + std::to_string(idx)`
        // here with a false-positive -Wrestrict.
        std::string tag = std::to_string(idx);
        tag.insert(tag.begin(), '#');
        return tag;
    }
    return "(unknown)";
}

/** One span object from a shard tasks line or inline bundle. */
void
addBundleTask(const JsonValue &task,
              const std::vector<std::string> &names, Accumulator &acc)
{
    SpanRec s;
    if (!numField(task, "start_s", s.start) ||
        !numField(task, "end_s", s.end))
        return;
    strField(task, "label", s.label);
    if (!strField(task, "phase", s.phase))
        s.phase = sim::phaseKey(s.label);
    s.resource = resourceName(task, names);
    numField(task, "slack_s", s.slack);
    s.has_power = numField(task, "power_w", s.power);
    acc.add(s);
}

/** Names in header/bundle order from a shard-header resources array. */
void
readResourceNames(const JsonValue &doc, std::vector<std::string> &names)
{
    const JsonValue *resources = member(doc, "resources");
    if (resources == nullptr || !resources->isArray())
        return;
    names.clear();
    for (const JsonValue &r : resources->items()) {
        std::string name;
        if (strField(r, "resource", name))
            names.push_back(std::move(name));
    }
}

/** A `*.bundle.jsonl` shard file, one JSON document per line. */
bool
queryShardFile(const std::string &path, Accumulator &acc,
               std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    std::vector<std::string> names;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue doc;
        if (!JsonValue::parse(line, doc) || !doc.isObject())
            continue; // Tolerate foreign lines in mixed logs.
        std::string kind;
        strField(doc, "kind", kind);
        if (kind == "bundle_shard_header") {
            readResourceNames(doc, names);
            double version = 0.0;
            if (numField(doc, "schema_version", version) &&
                version > kSchemaVersion)
                warn(path, ": newer shard schema ", version,
                     " (reader knows ", kSchemaVersion,
                     "); fields may be missed");
        } else if (kind == "bundle_tasks") {
            const JsonValue *tasks = member(doc, "tasks");
            if (tasks != nullptr && tasks->isArray())
                for (const JsonValue &t : tasks->items())
                    addBundleTask(t, names, acc);
        }
        // bundle_edges / bundle_critical carry no spans.
    }
    return true;
}

/**
 * Incremental scanner for monolithic JSON documents (Chrome traces,
 * inline inspection bundles): tracks string/escape state and brace
 * depth, and hands every complete depth-2 object — one trace event,
 * one bundle task, one resource summary — to @p handle as it closes.
 * Peak memory is one object, not the file.
 */
template <typename Handler>
bool
scanDepth2Objects(std::istream &in, Handler &&handle)
{
    std::string obj;
    bool in_string = false;
    bool escaped = false;
    int depth = 0;
    bool capturing = false;
    char buf[1 << 16];
    while (in.read(buf, sizeof buf), in.gcount() > 0) {
        const std::streamsize got = in.gcount();
        for (std::streamsize i = 0; i < got; ++i) {
            const char c = buf[i];
            if (capturing)
                obj.push_back(c);
            if (in_string) {
                if (escaped)
                    escaped = false;
                else if (c == '\\')
                    escaped = true;
                else if (c == '"')
                    in_string = false;
                continue;
            }
            if (c == '"') {
                in_string = true;
            } else if (c == '{') {
                ++depth;
                if (depth == 2 && !capturing) {
                    capturing = true;
                    obj.assign(1, '{');
                }
            } else if (c == '}') {
                --depth;
                if (depth == 1 && capturing) {
                    capturing = false;
                    handle(obj);
                }
            }
        }
    }
    return depth == 0 && !in_string;
}

/** Chrome trace or inline bundle document, streamed. */
bool
queryDocumentFile(const std::string &path, Accumulator &acc,
                  std::string *error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open " + path;
        return false;
    }
    // pid -> name from trace process_name metadata; positional names
    // from bundle resource summaries. Both maps stay tiny.
    std::map<std::int64_t, std::string> pid_names;
    std::vector<std::string> names;
    auto handle = [&](const std::string &text) {
        JsonValue obj;
        if (!JsonValue::parse(text, obj) || !obj.isObject())
            return;
        std::string ph;
        if (strField(obj, "ph", ph)) {
            std::string name;
            strField(obj, "name", name);
            std::int64_t pid = 0;
            const JsonValue *pid_v = member(obj, "pid");
            const bool has_pid = pid_v != nullptr && pid_v->asInteger(pid);
            if (ph == "M" && name == "process_name" && has_pid) {
                const JsonValue *args = member(obj, "args");
                std::string pname;
                if (args != nullptr && strField(*args, "name", pname))
                    pid_names[pid] = std::move(pname);
                return;
            }
            if (ph != "X")
                return; // Flow arrows, counters, other metadata.
            double ts = 0.0;
            double dur = 0.0;
            if (!numField(obj, "ts", ts) || !numField(obj, "dur", dur))
                return;
            SpanRec s;
            s.label = std::move(name);
            s.phase = sim::phaseKey(s.label);
            if (has_pid) {
                auto it = pid_names.find(pid);
                s.resource = it != pid_names.end()
                                 ? it->second
                                 : "#" + std::to_string(pid);
            } else {
                s.resource = "(unknown)";
            }
            // Trace-event times are microseconds.
            s.start = ts / 1e6;
            s.end = (ts + dur) / 1e6;
            acc.add(s);
            return;
        }
        // Inline bundle: resource summaries carry the positional
        // names the numeric task "resource" member indexes.
        std::string rname;
        if (member(obj, "slots") != nullptr &&
            strField(obj, "resource", rname)) {
            names.push_back(std::move(rname));
            return;
        }
        addBundleTask(obj, names, acc);
    };
    if (!scanDepth2Objects(in, handle)) {
        if (error != nullptr)
            *error = path + ": truncated or malformed JSON document";
        return false;
    }
    return true;
}

bool
isShardPath(const std::string &path)
{
    const std::string suffix = ".jsonl";
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

const char *
rankName(QueryOptions::Rank rank)
{
    switch (rank) {
    case QueryOptions::Rank::Slack:
        return "slack";
    case QueryOptions::Rank::Joules:
        return "joules";
    case QueryOptions::Rank::Duration:
        break;
    }
    return "duration";
}

void
appendAggTable(std::ostringstream &os, const char *title,
               const std::vector<std::pair<std::string, QueryAgg>> &rows)
{
    if (rows.empty())
        return;
    os << title << ":\n";
    std::size_t width = 0;
    for (const auto &row : rows)
        width = std::max(width, row.first.size());
    for (const auto &[name, agg] : rows) {
        char line[160];
        std::snprintf(line, sizeof line, "  %-*s %14.6f s  %10llu spans\n",
                      static_cast<int>(width), name.c_str(), agg.seconds,
                      static_cast<unsigned long long>(agg.count));
        os << line;
    }
}

} // namespace

bool
queryFiles(const std::vector<std::string> &paths,
           const QueryOptions &options, QueryResult &out,
           std::string *error)
{
    so::trace::Span span(so::trace::Category::Serialize, "query");
    out = QueryResult{};
    Accumulator acc(options, out);
    for (const std::string &path : paths) {
        const bool ok = isShardPath(path)
                            ? queryShardFile(path, acc, error)
                            : queryDocumentFile(path, acc, error);
        if (!ok)
            return false;
        ++out.files;
    }
    acc.finish();
    if (out.scanned == 0 && !paths.empty()) {
        if (error != nullptr)
            *error = "no spans found in the inputs (expected bundle "
                     "shards, Chrome traces, or inspection bundles)";
        return false;
    }
    return true;
}

std::string
queryToText(const QueryResult &result, const QueryOptions &options)
{
    std::ostringstream os;
    os << "query: " << result.files << " file"
       << (result.files == 1 ? "" : "s") << ", " << result.scanned
       << " spans scanned, " << result.matched << " matched\n";
    os << "filters:";
    bool any = false;
    if (!options.phase.empty()) {
        os << " phase=" << options.phase;
        any = true;
    }
    if (!options.resource.empty()) {
        os << " resource=" << options.resource;
        any = true;
    }
    if (options.begin_s > 0.0 ||
        options.end_s != std::numeric_limits<double>::infinity()) {
        os << " window=[" << options.begin_s << ", ";
        if (options.end_s == std::numeric_limits<double>::infinity())
            os << "inf";
        else
            os << options.end_s;
        os << ")";
        any = true;
    }
    if (!any)
        os << " (none)";
    os << '\n';
    {
        char line[160];
        std::snprintf(line, sizeof line,
                      "matched: %.6f s busy, %.3f J\n", result.busy_s,
                      result.joules);
        os << line;
    }
    appendAggTable(os, "by phase", result.by_phase);
    appendAggTable(os, "by resource", result.by_resource);
    if (!result.top.empty()) {
        os << "top " << result.top.size() << " by "
           << rankName(options.rank) << ":\n";
        std::size_t i = 0;
        for (const QuerySpan &s : result.top) {
            char line[256];
            std::snprintf(line, sizeof line,
                          "  %2zu) %14.6f  %s [%s] on %s @ %.6f..%.6f s\n",
                          ++i, s.value, s.label.c_str(), s.phase.c_str(),
                          s.resource.c_str(), s.start_s, s.end_s);
            os << line;
        }
    }
    return os.str();
}

std::string
queryToJson(const QueryResult &result, const QueryOptions &options)
{
    JsonWriter json;
    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("kind", "query_result");
    json.key("filters").beginObject();
    json.field("phase", options.phase);
    json.field("resource", options.resource);
    json.field("begin_s", options.begin_s);
    // null marks an unbounded window (JsonWriter emits non-finite
    // numbers as null anyway; make the intent explicit).
    if (options.end_s == std::numeric_limits<double>::infinity())
        json.key("end_s").null();
    else
        json.field("end_s", options.end_s);
    json.field("rank", rankName(options.rank));
    json.endObject();
    json.field("files", static_cast<std::uint64_t>(result.files));
    json.field("scanned", result.scanned);
    json.field("matched", result.matched);
    json.field("busy_s", result.busy_s);
    json.field("joules", result.joules);
    auto table = [&](const char *name,
                     const std::vector<std::pair<std::string, QueryAgg>>
                         &rows,
                     const char *key) {
        json.key(name).beginArray();
        for (const auto &[group, agg] : rows) {
            json.beginObject();
            json.field(key, group);
            json.field("seconds", agg.seconds);
            json.field("count", agg.count);
            json.endObject();
        }
        json.endArray();
    };
    table("by_phase", result.by_phase, "phase");
    table("by_resource", result.by_resource, "resource");
    json.key("top").beginArray();
    for (const QuerySpan &s : result.top) {
        json.beginObject();
        json.field("label", s.label);
        json.field("phase", s.phase);
        json.field("resource", s.resource);
        json.field("start_s", s.start_s);
        json.field("end_s", s.end_s);
        json.field("value", s.value);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

} // namespace so::report
