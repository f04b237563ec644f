#include "reference_scheduler.h"

#include <algorithm>
#include <limits>

namespace so::sim::testing {

Schedule
referenceSchedule(const TaskGraph &graph)
{
    const std::size_t n = graph.taskCount();
    const std::size_t nres = graph.resourceCount();

    Schedule schedule;
    schedule.start.assign(n, 0.0);
    schedule.finish.assign(n, 0.0);
    schedule.order.resize(nres);

    std::vector<char> started(n, 0);
    std::vector<char> done(n, 0);
    // The task each resource runs, until its completion *retires* — a
    // zero-duration task blocks its resource for the rest of the start
    // phase it began in, exactly like an event-queue completion that
    // hasn't drained yet.
    std::vector<TaskId> running(nres, kInvalidTask);

    const auto deps_done = [&](TaskId id) {
        for (TaskId dep : graph.deps(id))
            if (!done[dep])
                return false;
        return true;
    };

    double now = 0.0;
    for (;;) {
        // Start phase: each idle resource starts its lowest
        // (priority, id) ready task — every pick a fresh linear scan.
        for (ResourceId r = 0; r < nres; ++r) {
            if (running[r] != kInvalidTask)
                continue;
            TaskId pick = kInvalidTask;
            for (TaskId id = 0; id < n; ++id) {
                if (started[id] || graph.taskResource(id) != r)
                    continue;
                if (!deps_done(id))
                    continue;
                if (pick == kInvalidTask ||
                    graph.priority(id) < graph.priority(pick))
                    pick = id;
            }
            if (pick == kInvalidTask)
                continue;
            started[pick] = 1;
            schedule.start[pick] = now;
            schedule.finish[pick] = now + graph.duration(pick);
            running[r] = pick;
            // Only a task that moved past `now` occupied the resource.
            if (schedule.finish[pick] > now)
                schedule.order[r].push_back(pick);
        }

        // Advance to the earliest unfinished completion and retire
        // everything that finishes at that instant.
        double next = std::numeric_limits<double>::infinity();
        for (TaskId id = 0; id < n; ++id)
            if (started[id] && !done[id])
                next = std::min(next, schedule.finish[id]);
        if (next == std::numeric_limits<double>::infinity())
            break;
        now = next;
        for (TaskId id = 0; id < n; ++id) {
            if (started[id] && !done[id] && schedule.finish[id] == now) {
                done[id] = 1;
                running[graph.taskResource(id)] = kInvalidTask;
            }
        }
        schedule.makespan = now;
    }
    return schedule;
}

} // namespace so::sim::testing
