/**
 * @file
 * Chrome-trace (about://tracing, Perfetto) export of a Schedule.
 *
 * Each resource becomes a "process" with one "thread" (tid 0, since a
 * resource runs one task at a time), each task a complete event — handy
 * for eyeballing overlap structure of a schedule (the visual analogue
 * of the paper's Figs. 3 and 8). Given a profile, the trace also draws
 * flow arrows along the critical path and a per-resource occupancy
 * counter track.
 */
#ifndef SO_SIM_TRACE_H
#define SO_SIM_TRACE_H

#include <iosfwd>
#include <string>
#include <string_view>

#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {

struct ScheduleProfile;

/**
 * Render @p schedule of @p graph as a chrome://tracing JSON document.
 * When @p profile (from profileSchedule() over the same pair) is given,
 * the trace also carries flow events ("s"/"f" pairs) linking
 * consecutive critical-path tasks and one "occupancy" counter track per
 * resource (1 while it runs a task, else 0). A Summary profile has no
 * retained critical path, so its flow arrows are simply absent.
 */
std::string toChromeTrace(const TaskGraph &graph, const Schedule &schedule,
                          const ScheduleProfile *profile = nullptr);

/**
 * toChromeTrace streamed to @p os: the document goes out event by
 * event, so peak memory stays bounded regardless of schedule size
 * (docs/OBSERVABILITY.md).
 */
void streamChromeTrace(std::ostream &os, const TaskGraph &graph,
                       const Schedule &schedule,
                       const ScheduleProfile *profile = nullptr);

/**
 * Render a fixed-width ASCII Gantt chart of the schedule, one row per
 * resource; useful in terminal reports and tests.
 */
std::string toAsciiGantt(const TaskGraph &graph, const Schedule &schedule,
                         std::size_t width = 80);

/**
 * Grouping key of a task label for phase breakdowns: the label's first
 * space-delimited token with its trailing digit run stripped. "fwd L3",
 * "fwd L7" and "fwd3" all group as "fwd"; interior digits survive
 * ("d2h bucket 4" groups as "d2h", "128k prefetch" as "128k"). A token
 * that would strip to nothing keeps its digits ("42 things" groups as
 * "42"); an empty or blank-leading label groups as "(unnamed)".
 */
std::string phaseKey(std::string_view label);

} // namespace so::sim

#endif // SO_SIM_TRACE_H
