/**
 * @file
 * Per-task inspection bundle of one simulated schedule.
 *
 * ScheduleProfile (profiler.h) computes everything a human needs to
 * reason about a schedule — start/finish times, slack, critical-path
 * membership, idle-gap causes — but its JSON export (profileToJson)
 * serializes only the aggregates. The inspection bundle is the missing
 * per-task view: one flattened span per task (start/end/resource/
 * slack/critical flag) plus the full dependency edge list, enough to
 * redraw the schedule without the TaskGraph that produced it. Every
 * span and resource also carries `"slot":0` and `"slots":1`, which
 * stored bundles and their readers still expect: a resource runs one
 * task at a time. It is what the HTML explorer
 * (report/html.h, docs/EXPLORER.md) renders as its interactive Gantt,
 * and what `bench::Harness --trace-dir` persists per cell as
 * `*.bundle.json`.
 *
 * One writer produces the document: bundleToJson buffers it,
 * streamBundleJson streams the same bytes. writeBundleShards is the
 * chunked JSON-lines form for schedules too large for one document.
 */
#ifndef SO_SIM_INSPECT_H
#define SO_SIM_INSPECT_H

#include <iosfwd>
#include <string>

#include "sim/graph.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"

namespace so::sim {

/**
 * The bundle of @p schedule of @p graph as one standalone JSON
 * document, tagged `"kind":"inspection_bundle"` and carrying
 * `schema_version` so readers (so-report html, the explorer) can
 * identify it by shape. @p profile must come from profileSchedule()
 * over the same pair; it supplies slack, critical-path membership and
 * the idle-gap attribution. A Summary profile has no per-task slack or
 * critical-path membership, so those fields are 0/false and the
 * critical_path array is empty. When @p energy (from attributeEnergy
 * over the same pair) is given, the bundle carries per-resource watts,
 * per-span draw, and the energy totals the Explorer's power timeline
 * renders.
 */
std::string bundleToJson(const TaskGraph &graph, const Schedule &schedule,
                         const ScheduleProfile &profile,
                         const std::string &label = "",
                         const EnergyProfile *energy = nullptr);

/** bundleToJson streamed to @p os: peak memory stays bounded no
 *  matter how large the document grows. */
void streamBundleJson(std::ostream &os, const TaskGraph &graph,
                      const Schedule &schedule,
                      const ScheduleProfile &profile,
                      const std::string &label = "",
                      const EnergyProfile *energy = nullptr);

/**
 * Write the bundle as chunked JSON-lines shards to @p path
 * (conventionally `*.bundle.jsonl`): one `bundle_shard_header` line
 * (label, totals, per-resource summaries, counts), then
 * `bundle_tasks` lines of at most @p chunk spans each — emitted in
 * each resource's start order (Schedule::order), so a time-window
 * reader can stop early — then `bundle_edges` lines and, when the
 * profile retained one, `bundle_critical` lines. Every line is a
 * complete JSON object; peak RSS is O(chunk), never O(tasks).
 * `so-report query` and the Explorer drill-down consume this format
 * (docs/OBSERVABILITY.md). Returns false on I/O failure.
 */
bool writeBundleShards(const std::string &path, const TaskGraph &graph,
                       const Schedule &schedule,
                       const ScheduleProfile &profile,
                       const std::string &label = "",
                       const EnergyProfile *energy = nullptr,
                       std::size_t chunk = 4096);

} // namespace so::sim

#endif // SO_SIM_INSPECT_H
