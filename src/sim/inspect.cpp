#include "sim/inspect.h"

#include <fstream>
#include <memory>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "common/schema.h"
#include "common/trace.h"
#include "sim/trace.h"

namespace so::sim {

namespace {

/**
 * The lane fields of the bundle format: every resource runs one task at
 * a time, so each has one slot and every span runs on slot 0.
 */
constexpr std::uint32_t kSlots = 1;
constexpr std::uint32_t kSlot = 0;

/** Shared body of bundleToJson / streamBundleJson. */
void
writeBundleDoc(JsonWriter &json, const TaskGraph &graph,
               const Schedule &schedule, const ScheduleProfile &profile,
               const std::string &label, const EnergyProfile *energy)
{
    so::trace::Span trace_span(so::trace::Category::Serialize,
                               "bundle-json");
    const std::size_t n = graph.taskCount();
    SO_ASSERT(schedule.start.size() == n,
              "bundle inputs do not describe the same graph");
    const bool has_slack = profile.slack.size() == n;
    const bool metered = energy != nullptr && energy->valid;
    const bool has_task_j = metered && energy->task_j.size() == n;

    // Critical membership comes from O(V) scratch that is small next
    // to the document itself.
    std::vector<char> on_path(n, 0);
    for (const CriticalStep &step : profile.critical_path)
        on_path[step.task] = 1;

    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("kind", "inspection_bundle");
    json.field("label", label);
    json.field("makespan_s", profile.makespan);
    json.field("total_j", metered ? energy->total_j : 0.0);
    json.field("avg_w", metered ? energy->avg_w : 0.0);

    json.key("resources").beginArray();
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        const ResourceProfile &rp = profile.resources[r];
        json.beginObject();
        json.field("resource", graph.resource(r).name);
        json.field("slots", kSlots);
        json.field("busy_s", rp.busy);
        json.field("idle_dependency_s", rp.idle_dependency);
        json.field("idle_contention_s", rp.idle_contention);
        json.field("idle_tail_s", rp.idle_tail);
        json.field("busy_w", metered ? energy->resources[r].busy_w : 0.0);
        json.field("idle_w", metered ? energy->resources[r].idle_w : 0.0);
        json.key("gaps").beginArray();
        for (const IdleGap &gap : profile.gaps[r]) {
            json.beginObject();
            json.field("begin_s", gap.begin);
            json.field("end_s", gap.end);
            json.field("cause", idleCauseName(gap.cause));
            if (gap.next_task != kInvalidTask)
                json.field("next", gap.next_task);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();

    json.key("tasks").beginArray();
    for (TaskId id = 0; id < n; ++id) {
        const double start = schedule.start[id];
        const double end = schedule.finish[id];
        const double dur = end - start;
        double power_w = 0.0;
        if (metered) {
            // Per-byte tolls amortize over the span when the per-task
            // array is retained; a Summary energy profile falls back
            // to the resource's busy draw.
            if (has_task_j && dur > 0.0)
                power_w = energy->task_j[id] / dur;
            else
                power_w =
                    energy->resources[graph.taskResource(id)].busy_w;
        }
        json.beginObject();
        json.field("id", id);
        json.field("label", graph.label(id));
        json.field("phase", phaseKey(graph.label(id)));
        json.field("resource", graph.taskResource(id));
        json.field("slot", kSlot);
        json.field("start_s", start);
        json.field("end_s", end);
        json.field("slack_s", has_slack ? profile.slack[id] : 0.0);
        json.field("critical", on_path[id] != 0);
        json.field("power_w", power_w);
        json.endObject();
    }
    json.endArray();

    json.key("edges").beginArray();
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : graph.deps(id)) {
            json.beginArray();
            json.value(dep);
            json.value(id);
            json.endArray();
        }
    json.endArray();

    json.key("critical_path").beginArray();
    for (const CriticalStep &step : profile.critical_path)
        json.value(step.task);
    json.endArray();

    json.endObject();
}

} // namespace

std::string
bundleToJson(const TaskGraph &graph, const Schedule &schedule,
             const ScheduleProfile &profile, const std::string &label,
             const EnergyProfile *energy)
{
    JsonWriter json;
    writeBundleDoc(json, graph, schedule, profile, label, energy);
    return json.str();
}

void
streamBundleJson(std::ostream &os, const TaskGraph &graph,
                 const Schedule &schedule, const ScheduleProfile &profile,
                 const std::string &label, const EnergyProfile *energy)
{
    JsonWriter json(os);
    writeBundleDoc(json, graph, schedule, profile, label, energy);
}

bool
writeBundleShards(const std::string &path, const TaskGraph &graph,
                  const Schedule &schedule, const ScheduleProfile &profile,
                  const std::string &label, const EnergyProfile *energy,
                  std::size_t chunk)
{
    so::trace::Span trace_span(so::trace::Category::Serialize,
                               "bundle-shards");
    if (chunk == 0)
        chunk = 4096;
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        warn("cannot open bundle shard file ", path);
        return false;
    }

    const std::size_t n = graph.taskCount();
    SO_ASSERT(schedule.start.size() == n,
              "bundle inputs do not describe the same graph");
    const bool has_slack = profile.slack.size() == n;
    const bool metered = energy != nullptr && energy->valid;
    const bool has_task_j = metered && energy->task_j.size() == n;

    // Header line: everything bounded about the bundle.
    {
        JsonWriter json(out);
        json.beginObject();
        json.field("schema_version", kSchemaVersion);
        json.field("kind", "bundle_shard_header");
        json.field("label", label);
        json.field("makespan_s", profile.makespan);
        json.field("total_j", metered ? energy->total_j : 0.0);
        json.field("avg_w", metered ? energy->avg_w : 0.0);
        json.field("task_count", static_cast<std::uint64_t>(n));
        json.field("edge_count",
                   static_cast<std::uint64_t>(graph.edgeCount()));
        json.field("chunk", static_cast<std::uint64_t>(chunk));
        json.key("resources").beginArray();
        for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
            const ResourceProfile &rp = profile.resources[r];
            json.beginObject();
            json.field("resource", graph.resource(r).name);
            json.field("slots", kSlots);
            json.field("busy_s", rp.busy);
            json.field("idle_dependency_s", rp.idle_dependency);
            json.field("idle_contention_s", rp.idle_contention);
            json.field("idle_tail_s", rp.idle_tail);
            json.field("busy_w",
                       metered ? energy->resources[r].busy_w : 0.0);
            json.field("idle_w",
                       metered ? energy->resources[r].idle_w : 0.0);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        out << '\n';
    }

    // Task chunks, in per-resource start order: a reader filtering on
    // a time window can skip whole lines by their span range.
    std::unique_ptr<JsonWriter> line;
    std::size_t in_line = 0;
    auto open_tasks = [&]() {
        line = std::make_unique<JsonWriter>(out);
        line->beginObject();
        line->field("kind", "bundle_tasks");
        line->key("tasks").beginArray();
    };
    auto close_line = [&]() {
        line->endArray();
        line->endObject();
        line.reset();
        out << '\n';
        in_line = 0;
    };
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        for (const TaskId id : schedule.order[r]) {
            if (!line)
                open_tasks();
            const double start = schedule.start[id];
            const double end = schedule.finish[id];
            const double dur = end - start;
            line->beginObject();
            line->field("id", id);
            line->field("label", graph.label(id));
            line->field("phase", phaseKey(graph.label(id)));
            line->field("resource", r);
            line->field("slot", kSlot);
            line->field("start_s", start);
            line->field("end_s", end);
            if (has_slack)
                line->field("slack_s", profile.slack[id]);
            if (metered) {
                line->field("power_w",
                            has_task_j && dur > 0.0
                                ? energy->task_j[id] / dur
                                : energy->resources[r].busy_w);
            }
            line->endObject();
            if (++in_line >= chunk)
                close_line();
        }
    }
    if (line)
        close_line();

    // Edge chunks.
    auto open_edges = [&]() {
        line = std::make_unique<JsonWriter>(out);
        line->beginObject();
        line->field("kind", "bundle_edges");
        line->key("edges").beginArray();
    };
    for (TaskId id = 0; id < n; ++id) {
        for (TaskId dep : graph.deps(id)) {
            if (!line)
                open_edges();
            line->beginArray();
            line->value(dep);
            line->value(id);
            line->endArray();
            if (++in_line >= chunk)
                close_line();
        }
    }
    if (line)
        close_line();

    // Critical-path chunks (absent when the profile did not retain
    // the chain — Summary mode).
    auto open_critical = [&]() {
        line = std::make_unique<JsonWriter>(out);
        line->beginObject();
        line->field("kind", "bundle_critical");
        line->key("tasks").beginArray();
    };
    for (const CriticalStep &step : profile.critical_path) {
        if (!line)
            open_critical();
        line->value(step.task);
        if (++in_line >= chunk)
            close_line();
    }
    if (line)
        close_line();

    out.flush();
    return static_cast<bool>(out);
}

} // namespace so::sim
