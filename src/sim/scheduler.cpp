#include "sim/scheduler.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/logging.h"
#include "common/trace.h"

namespace so::sim {

double
Schedule::utilization(ResourceId resource) const
{
    SO_ASSERT(resource < timelines.size(), "unknown resource ", resource);
    if (makespan <= 0.0)
        return 0.0;
    return timelines[resource].utilization(0.0, makespan);
}

namespace {

using Slot = Scheduler::Workspace::Slot;

/**
 * Min-heap comparator over (free time, slot index): the slot that freed
 * earliest pops first, ties broken toward the lowest slot index so slot
 * assignment is deterministic and chrome-trace lanes never overlap.
 */
struct SlotAfter
{
    bool
    operator()(const Slot &a, const Slot &b) const
    {
        if (a.free_time != b.free_time)
            return a.free_time > b.free_time;
        return a.slot > b.slot;
    }
};

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

/** How many unreachable-task labels a cycle diagnosis lists. */
constexpr std::size_t kMaxCycleLabels = 8;

/**
 * Priority spans up to this wide index ready buckets directly by
 * (priority - min); wider (degenerate) spans are first compressed to
 * dense ranks through a sorted-unique table. Builders use a handful of
 * adjacent priorities, so the dense path is the one that matters.
 */
constexpr std::int64_t kDensePrioritySpan = 4096;

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
    // Sizing only, no value-init: every task's start/finish is stored
    // exactly once below (a graph whose tasks can't all run is fatal),
    // and recycled capacity must not be re-touched twice per run.
    schedule.start.resize(n);
    schedule.finish.resize(n);
    schedule.timelines.resize(nres);
    for (Timeline &timeline : schedule.timelines)
        timeline.clear();
    schedule.makespan = 0.0;

    // Reverse edges come from the graph's cached CSR — built once per
    // graph (usually already during graph construction by the first
    // consumer) and shared by every run over it.
    graph.finalizeDependents();

    ws.pending_deps.resize(n);
    for (TaskId id = 0; id < n; ++id)
        ws.pending_deps[id] =
            static_cast<std::uint32_t>(graph.depCount(id));

    // Priority ranks for the bucketed ready sets: a direct offset when
    // the graph's priority range is dense (every builder), a
    // sorted-unique compression for degenerate ranges. Rank order ==
    // priority order either way, so tie-breaks are unchanged.
    const std::int64_t min_priority = graph.minPriority();
    const std::int64_t priority_span =
        static_cast<std::int64_t>(graph.maxPriority()) - min_priority + 1;
    const bool dense = priority_span <= kDensePrioritySpan;
    std::size_t ranks;
    if (dense) {
        ranks = static_cast<std::size_t>(priority_span);
    } else {
        const std::span<const std::int32_t> priorities =
            graph.priorities();
        ws.rank_values.assign(priorities.begin(), priorities.end());
        std::sort(ws.rank_values.begin(), ws.rank_values.end());
        ws.rank_values.erase(std::unique(ws.rank_values.begin(),
                                         ws.rank_values.end()),
                             ws.rank_values.end());
        ranks = ws.rank_values.size();
    }
    const auto rank_of = [&](TaskId id) {
        const std::int32_t priority = graph.priority(id);
        if (dense)
            return static_cast<std::size_t>(priority - min_priority);
        return static_cast<std::size_t>(
            std::lower_bound(ws.rank_values.begin(), ws.rank_values.end(),
                             priority) -
            ws.rank_values.begin());
    };

    if (ws.ready.size() < nres)
        ws.ready.resize(nres);
    if (ws.slot_free.size() < nres)
        ws.slot_free.resize(nres);
    for (ResourceId r = 0; r < nres; ++r) {
        ws.ready[r].reset(ranks);
        ws.slot_free[r].clear();
        // All slots free at t=0, in ascending index order — already a
        // valid (free_time, slot) min-heap.
        for (std::uint32_t s = 0; s < graph.resource(r).slots; ++s)
            ws.slot_free[r].push_back(Slot{0.0, s});
    }

    ws.events.clear();
    std::size_t completed = 0;
    double now = 0.0;

    // Track which slot each running task holds so freed slots return to
    // the heap under their own index (timelines then carry overlap-free
    // slot lanes), and which tasks ever completed (cycle diagnosis).
    ws.task_slot.assign(n, 0);
    ws.done.assign(n, 0);

    auto start_ready = [&](ResourceId r) {
        Workspace::ReadySet &ready = ws.ready[r];
        std::vector<Slot> &slots = ws.slot_free[r];
        while (!ready.empty() && !slots.empty() &&
               slots.front().free_time <= now) {
            std::pop_heap(slots.begin(), slots.end(), SlotAfter{});
            const std::uint32_t slot = slots.back().slot;
            slots.pop_back();
            const TaskId id = ready.popMin();
            const double begin = now;
            const double end = begin + graph.duration(id);
            schedule.start[id] = begin;
            schedule.finish[id] = end;
            ws.task_slot[id] = slot;
            schedule.timelines[r].add(begin, end, id, slot);
            ws.events.push_back(SimEvent{end, id});
            std::push_heap(ws.events.begin(), ws.events.end(),
                           EventAfter{});
        }
    };

    auto mark_ready = [&](TaskId id) {
        ws.ready[graph.taskResource(id)].push(rank_of(id), id);
    };

    // Seed with tasks that have no dependencies.
    for (TaskId id = 0; id < n; ++id) {
        if (ws.pending_deps[id] == 0)
            mark_ready(id);
    }
    for (ResourceId r = 0; r < nres; ++r)
        start_ready(r);

    // Per-timestamp scratch, hoisted out of the event loop. `touched` is
    // a flag per resource (resource counts are tiny) so freed resources
    // restart work in ascending-id order, deterministically.
    ws.finished.clear();
    if (ws.touched.size() < nres)
        ws.touched.resize(nres, 0);

    while (!ws.events.empty()) {
        now = ws.events.front().time;
        // Process every completion at this timestamp before starting new
        // work, so freed slots and satisfied deps are all visible.
        ws.finished.clear();
        while (!ws.events.empty() && ws.events.front().time == now) {
            std::pop_heap(ws.events.begin(), ws.events.end(),
                          EventAfter{});
            ws.finished.push_back(ws.events.back().id);
            ws.events.pop_back();
        }
        std::fill(ws.touched.begin(), ws.touched.begin() +
                                          static_cast<std::ptrdiff_t>(nres),
                  0);
        for (TaskId id : ws.finished) {
            ++completed;
            ws.done[id] = 1;
            const ResourceId r = graph.taskResource(id);
            std::vector<Slot> &slots = ws.slot_free[r];
            slots.push_back(Slot{now, ws.task_slot[id]});
            std::push_heap(slots.begin(), slots.end(), SlotAfter{});
            ws.touched[r] = 1;
            for (TaskId next : graph.dependents(id)) {
                SO_ASSERT(ws.pending_deps[next] > 0,
                          "dependency underflow");
                if (--ws.pending_deps[next] == 0) {
                    mark_ready(next);
                    ws.touched[graph.taskResource(next)] = 1;
                }
            }
        }
        for (ResourceId r = 0; r < nres; ++r)
            if (ws.touched[r])
                start_ready(r);
    }
    // Events drain in ascending time, so the last batch's timestamp is
    // the completion time of the whole graph — one store instead of a
    // max-fold every event-loop iteration.
    schedule.makespan = now;

    if (completed != n) {
        // Unreachable tasks: the graph has a dependency cycle. Name the
        // stuck tasks so a bad system schedule is debuggable.
        std::string labels;
        std::size_t listed = 0;
        for (TaskId id = 0; id < n && listed < kMaxCycleLabels; ++id) {
            if (ws.done[id])
                continue;
            if (listed++)
                labels += ", ";
            labels += '"';
            labels += graph.label(id);
            labels += '"';
        }
        const std::size_t stuck = n - completed;
        if (stuck > kMaxCycleLabels)
            labels += ", ... (" +
                      std::to_string(stuck - kMaxCycleLabels) + " more)";
        SO_FATAL("scheduler: ", stuck,
                 " task(s) unreachable — the graph has a dependency "
                 "cycle involving: ",
                 labels);
    }
}

} // namespace so::sim
