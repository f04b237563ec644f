#include "sim/scheduler.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "common/trace.h"

namespace so::sim {

double
Schedule::busyTime(ResourceId resource, double begin, double end) const
{
    SO_ASSERT(resource < order.size(), "unknown resource ", resource);
    // One merge pass over the start-ordered tasks, summing the union's
    // segments in ascending order.
    double busy = 0.0;
    bool open = false;
    double cur_s = 0.0;
    double cur_e = 0.0;
    for (const TaskId id : order[resource]) {
        if (start[id] >= end)
            break; // So does every later task.
        const double s = std::max(start[id], begin);
        const double e = std::min(finish[id], end);
        if (e <= s)
            continue;
        if (open && s <= cur_e) {
            cur_e = std::max(cur_e, e);
            continue;
        }
        if (open)
            busy += cur_e - cur_s;
        open = true;
        cur_s = s;
        cur_e = e;
    }
    return open ? busy + (cur_e - cur_s) : 0.0;
}

namespace {

/**
 * Min-heap comparator over (time, id): completions drain in ascending
 * time, ties in ascending task id, so the drain sequence is a pure
 * function of the pending set.
 */
struct EventAfter
{
    bool
    operator()(const SimEvent &a, const SimEvent &b) const
    {
        if (a.time != b.time)
            return a.time > b.time;
        return a.id > b.id;
    }
};

} // namespace

void
Scheduler::Workspace::ReadySet::reset(std::size_t ranks)
{
    if (buckets.size() < ranks)
        buckets.resize(ranks);
    for (Bucket &bucket : buckets) {
        bucket.ids.clear();
        bucket.cursor = 0;
    }
    live.assign((ranks + 63) / 64, 0);
    count = 0;
}

void
Scheduler::Workspace::ReadySet::push(std::size_t rank, TaskId id)
{
    Bucket &bucket = buckets[rank];
    if (bucket.cursor != 0 && bucket.cursor == bucket.ids.size()) {
        bucket.ids.clear();
        bucket.cursor = 0;
    }
    if (bucket.cursor == bucket.ids.size())
        live[rank >> 6] |= std::uint64_t(1) << (rank & 63);
    if (bucket.ids.empty() || id > bucket.ids.back())
        bucket.ids.push_back(id);
    else
        bucket.ids.insert(
            std::lower_bound(bucket.ids.begin() +
                                 static_cast<std::ptrdiff_t>(bucket.cursor),
                             bucket.ids.end(), id),
            id);
    ++count;
}

TaskId
Scheduler::Workspace::ReadySet::popMin()
{
    SO_ASSERT(count > 0, "popMin on an empty ready set");
    std::size_t word = 0;
    while (live[word] == 0)
        ++word;
    const std::size_t rank =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(live[word]));
    Bucket &bucket = buckets[rank];
    const TaskId id = bucket.ids[bucket.cursor++];
    if (bucket.cursor == bucket.ids.size()) {
        bucket.ids.clear();
        bucket.cursor = 0;
        live[word] &= ~(std::uint64_t(1) << (rank & 63));
    }
    --count;
    return id;
}

Schedule
Scheduler::run(const TaskGraph &graph) const
{
    Workspace local;
    return run(graph, local);
}

Scheduler::Workspace &
Scheduler::threadWorkspace()
{
    static thread_local Workspace ws;
    return ws;
}

Schedule
Scheduler::run(const TaskGraph &graph, Workspace &ws) const
{
    Schedule schedule;
    run(graph, ws, schedule);
    return schedule;
}

void
Scheduler::run(const TaskGraph &graph, Workspace &ws,
               Schedule &out) const
{
    const std::size_t n = graph.taskCount();
    const std::size_t nres = graph.resourceCount();
    trace::Span span(trace::Category::Sim, "schedule");
    span.arg("tasks", static_cast<double>(n));

    Schedule &schedule = out;
    // Sizing only, no value-init: every task becomes ready (its
    // dependencies are earlier tasks), so every start/finish is stored
    // exactly once below, and recycled capacity must not be re-touched
    // twice per run.
    schedule.start.resize(n);
    schedule.finish.resize(n);
    schedule.order.resize(nres);
    for (std::vector<TaskId> &tasks : schedule.order)
        tasks.clear();
    schedule.makespan = 0.0;

    // Reverse edges come from the graph's cached CSR — built once per
    // graph (usually already during graph construction by the first
    // consumer) and shared by every run over it.
    graph.finalizeDependents();

    ws.pending_deps.resize(n);
    for (TaskId id = 0; id < n; ++id)
        ws.pending_deps[id] =
            static_cast<std::uint32_t>(graph.depCount(id));

    // One ready bucket per priority in the graph's span, which addTask
    // bounds by kMaxPrioritySpan; rank order is priority order.
    const std::int64_t min_priority = graph.minPriority();
    const auto ranks = static_cast<std::size_t>(
        std::int64_t{graph.maxPriority()} - min_priority + 1);
    if (ws.ready.size() < nres)
        ws.ready.resize(nres);
    for (ResourceId r = 0; r < nres; ++r)
        ws.ready[r].reset(ranks);
    ws.busy.assign(nres, 0);
    ws.events.clear();
    double now = 0.0;

    // Start the lowest (priority, id) ready task of an idle resource.
    auto start_next = [&](ResourceId r) {
        Workspace::ReadySet &ready = ws.ready[r];
        if (ws.busy[r] || ready.empty())
            return;
        const TaskId id = ready.popMin();
        const double end = now + graph.duration(id);
        schedule.start[id] = now;
        schedule.finish[id] = end;
        // A task too short to move the clock (zero duration, or one
        // that rounds away against `now`) holds no time on r.
        if (end > now)
            schedule.order[r].push_back(id);
        ws.busy[r] = 1;
        ws.events.push_back(SimEvent{end, id});
        std::push_heap(ws.events.begin(), ws.events.end(), EventAfter{});
    };

    auto mark_ready = [&](TaskId id) {
        ws.ready[graph.taskResource(id)].push(
            static_cast<std::size_t>(graph.priority(id) - min_priority),
            id);
    };

    // Seed with tasks that have no dependencies.
    for (TaskId id = 0; id < n; ++id) {
        if (ws.pending_deps[id] == 0)
            mark_ready(id);
    }
    for (ResourceId r = 0; r < nres; ++r)
        start_next(r);

    while (!ws.events.empty()) {
        now = ws.events.front().time;
        // Retire every completion at this timestamp, in ascending id,
        // before starting new work, so freed resources and satisfied
        // deps are all visible; then every idle resource starts its
        // next ready task, in ascending resource order.
        do {
            std::pop_heap(ws.events.begin(), ws.events.end(),
                          EventAfter{});
            const TaskId id = ws.events.back().id;
            ws.events.pop_back();
            ws.busy[graph.taskResource(id)] = 0;
            for (TaskId next : graph.dependents(id)) {
                SO_ASSERT(ws.pending_deps[next] > 0,
                          "dependency underflow");
                if (--ws.pending_deps[next] == 0)
                    mark_ready(next);
            }
        } while (!ws.events.empty() && ws.events.front().time == now);
        for (ResourceId r = 0; r < nres; ++r)
            start_next(r);
    }
    // Events drain in ascending time, so the last batch's timestamp is
    // the completion time of the whole graph — one store instead of a
    // max-fold every event-loop iteration.
    schedule.makespan = now;
}

} // namespace so::sim
