#include "sim/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json.h"
#include "common/logging.h"
#include "common/trace.h"
#include "sim/profiler.h"

namespace so::sim {

namespace {

/** Critical-path flow arrows plus per-resource occupancy counters. */
void
writeProfileEvents(std::ostream &os, const TaskGraph &graph,
                   const Schedule &schedule, const ScheduleProfile &profile)
{
    // Flow arrows between consecutive critical-path tasks: an "s"
    // event at the predecessor's finish, a matching "f" (bind to
    // enclosing slice) at the successor's start.
    for (std::size_t i = 0; i + 1 < profile.critical_path.size(); ++i) {
        const TaskId a = profile.critical_path[i].task;
        const TaskId b = profile.critical_path[i + 1].task;
        os << ",{\"name\":\"critical\",\"cat\":\"critical\","
           << "\"ph\":\"s\",\"id\":" << i
           << ",\"pid\":" << graph.taskResource(a)
           << ",\"tid\":0,\"ts\":" << schedule.finish[a] * 1e6 << "}";
        os << ",{\"name\":\"critical\",\"cat\":\"critical\","
           << "\"ph\":\"f\",\"bp\":\"e\",\"id\":" << i
           << ",\"pid\":" << graph.taskResource(b)
           << ",\"tid\":0,\"ts\":" << schedule.start[b] * 1e6 << "}";
    }

    // Occupancy counter per resource: busy (1) or idle (0) at every
    // task boundary (step function readable in the trace viewer).
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        std::map<double, int> delta;
        delta[0.0] += 0; // Anchor the track at t=0 even when idle.
        for (const TaskId id : schedule.order[r]) {
            delta[schedule.start[id]] += 1;
            delta[schedule.finish[id]] -= 1;
        }
        int busy = 0;
        for (const auto &[t, d] : delta) {
            busy += d;
            os << ",{\"name\":\"occupancy\",\"ph\":\"C\",\"pid\":" << r
               << ",\"ts\":" << t * 1e6
               << ",\"args\":{\"busy\":" << busy << "}}";
        }
    }
}

} // namespace

std::string
toChromeTrace(const TaskGraph &graph, const Schedule &schedule,
              const ScheduleProfile *profile)
{
    std::ostringstream os;
    streamChromeTrace(os, graph, schedule, profile);
    return os.str();
}

void
streamChromeTrace(std::ostream &os, const TaskGraph &graph,
                  const Schedule &schedule, const ScheduleProfile *profile)
{
    so::trace::Span span(so::trace::Category::Serialize,
                         "chrome-trace");
    os << "{\"traceEvents\":[";
    // Process-name metadata plus one complete event per task that
    // held its resource.
    bool first = true;
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << r
           << ",\"args\":{\"name\":\""
           << JsonWriter::escape(graph.resource(r).name) << "\"}}";
    }
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        for (const TaskId id : schedule.order[r]) {
            os << ',';
            // Times in microseconds per the trace-event spec.
            os << "{\"name\":\"" << JsonWriter::escape(graph.label(id))
               << "\",\"ph\":\"X\",\"pid\":" << r
               << ",\"tid\":0,\"ts\":" << schedule.start[id] * 1e6
               << ",\"dur\":"
               << (schedule.finish[id] - schedule.start[id]) * 1e6 << "}";
        }
    }
    if (profile != nullptr)
        writeProfileEvents(os, graph, schedule, *profile);
    os << "]}";
}

std::string
toAsciiGantt(const TaskGraph &graph, const Schedule &schedule,
             std::size_t width)
{
    SO_ASSERT(width >= 10, "gantt width too small");
    std::ostringstream os;
    const double span = schedule.makespan;
    if (span <= 0.0)
        return "(empty schedule)\n";

    std::size_t name_width = 0;
    for (const Resource &r : graph.resources())
        name_width = std::max(name_width, r.name.size());

    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        std::string row(width, '.');
        for (const TaskId id : schedule.order[r]) {
            auto lo = static_cast<std::size_t>(
                schedule.start[id] / span * static_cast<double>(width));
            auto hi = static_cast<std::size_t>(
                schedule.finish[id] / span * static_cast<double>(width));
            lo = std::min(lo, width - 1);
            hi = std::min(std::max(hi, lo + 1), width);
            for (std::size_t i = lo; i < hi; ++i)
                row[i] = '#';
        }
        os << graph.resource(r).name
           << std::string(name_width - graph.resource(r).name.size() + 1,
                          ' ')
           << '|' << row << "|\n";
    }
    return os.str();
}

std::string
phaseKey(std::string_view label)
{
    // First space-delimited token...
    std::size_t token = label.find(' ');
    if (token == std::string_view::npos)
        token = label.size();
    // ...with its trailing digit run stripped, so per-layer/per-bucket
    // indices fold away ("fwd3" -> "fwd") while interior digits stay
    // ("d2h", "128k"). A token that is *all* digits keeps them rather
    // than collapsing to "".
    std::size_t cut = token;
    while (cut > 0 && label[cut - 1] >= '0' && label[cut - 1] <= '9')
        --cut;
    if (cut == 0)
        cut = token;
    // Empty labels (and blank-leading ones, whose first token is
    // empty) group under a synthetic phase.
    if (cut == 0)
        return "(unnamed)";
    return std::string(label.substr(0, cut));
}

} // namespace so::sim
