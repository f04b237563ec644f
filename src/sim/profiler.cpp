#include "sim/profiler.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "common/json.h"
#include "common/schema.h"
#include "common/logging.h"
#include "common/trace.h"
#include "sim/trace.h"

namespace so::sim {

const char *
idleCauseName(IdleCause cause)
{
    switch (cause) {
      case IdleCause::DependencyWait: return "dependency-wait";
      case IdleCause::ResourceContention: return "resource-contention";
      case IdleCause::Tail: return "tail";
    }
    return "?";
}

namespace {

const char *
linkName(CriticalLink link)
{
    switch (link) {
      case CriticalLink::Start: return "start";
      case CriticalLink::Dependency: return "dependency";
      case CriticalLink::Resource: return "resource";
    }
    return "?";
}

/** Latest-finishing dependency of @p task (ties: first in dep order);
 *  kInvalidTask when the task has none. */
TaskId
blockingDep(const TaskGraph &graph, const Schedule &schedule, TaskId task)
{
    TaskId blocker = kInvalidTask;
    for (TaskId dep : graph.deps(task)) {
        if (blocker == kInvalidTask ||
            schedule.finish[dep] > schedule.finish[blocker])
            blocker = dep;
    }
    return blocker;
}

/**
 * Spread @p rate × seconds of [begin, end) across the fixed-width
 * @p bins (each bin_s wide, tiling [0, bins.size() * bin_s]); the last
 * bin absorbs the boundary. The pieces telescope, so the row gains
 * (end - begin) × rate up to fp rounding — the conservation the LOD
 * tests pin to 1e-9.
 */
void
addSpanToBins(std::vector<double> &bins, double bin_s, double begin,
              double end, double rate = 1.0)
{
    if (bins.empty() || bin_s <= 0.0 || end <= begin)
        return;
    std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(begin / bin_s), bins.size() - 1);
    double lo = begin;
    while (lo < end) {
        const double edge = static_cast<double>(k + 1) * bin_s;
        const double hi =
            (k + 1 >= bins.size()) ? end : std::min(end, edge);
        if (hi > lo)
            bins[k] += (hi - lo) * rate;
        lo = hi;
        if (++k >= bins.size())
            break;
    }
}

/** Bin index of instant @p t (clamped into range). */
std::size_t
binIndex(const std::vector<double> &bins, double bin_s, double t)
{
    if (bin_s <= 0.0)
        return 0;
    return std::min<std::size_t>(static_cast<std::size_t>(t / bin_s),
                                 bins.size() - 1);
}

/**
 * Streaming top-K selector: value-descending, task-id-ascending — the
 * same total order topZeroSlackTasks() sorts by, so the retained list
 * is exactly the first K entries of the full sorted array. O(K)
 * memory, O(log K) per push.
 */
class TopK
{
  public:
    explicit TopK(std::size_t k) : k_(k) {}

    void
    push(TaskId task, double value)
    {
        if (k_ == 0)
            return;
        const TopTask entry{task, value};
        if (heap_.size() < k_) {
            heap_.push_back(entry);
            std::push_heap(heap_.begin(), heap_.end(), outranks);
            return;
        }
        // Front is the lowest-ranked retained entry; evict it when the
        // newcomer outranks it.
        if (outranks(entry, heap_.front())) {
            std::pop_heap(heap_.begin(), heap_.end(), outranks);
            heap_.back() = entry;
            std::push_heap(heap_.begin(), heap_.end(), outranks);
        }
    }

    /** The retained entries, best first. */
    std::vector<TopTask>
    take()
    {
        std::sort(heap_.begin(), heap_.end(), outranks);
        return std::move(heap_);
    }

  private:
    static bool
    outranks(const TopTask &a, const TopTask &b)
    {
        if (a.value != b.value)
            return a.value > b.value;
        return a.task < b.task;
    }

    std::size_t k_;
    std::vector<TopTask> heap_;
};

/** @p totals as (phase, value) pairs, largest value first (ties by
 *  name). */
std::vector<std::pair<std::string, double>>
largestFirst(const std::map<std::string, double> &totals)
{
    std::vector<std::pair<std::string, double>> out(totals.begin(),
                                                    totals.end());
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        if (a.second != b.second)
            return a.second > b.second;
        return a.first < b.first;
    });
    return out;
}

} // namespace

ScheduleProfile
profileSchedule(const TaskGraph &graph, const Schedule &schedule,
                const ProfileOptions &options)
{
    trace::Span span(trace::Category::Profile, "profile");
    const std::size_t n = graph.taskCount();
    SO_ASSERT(schedule.start.size() == n && schedule.finish.size() == n,
              "schedule does not match graph");
    SO_ASSERT(schedule.order.size() == graph.resourceCount(),
              "schedule orders do not match graph resources");

    ScheduleProfile prof;
    prof.makespan = schedule.makespan;
    prof.task_count = n;
    prof.summarized = options.summarized(n);
    if (!prof.summarized)
        prof.slack.assign(n, 0.0);
    prof.resources.resize(graph.resourceCount());
    prof.gaps.resize(graph.resourceCount());
    prof.resource_names.reserve(graph.resourceCount());
    for (ResourceId r = 0; r < graph.resourceCount(); ++r)
        prof.resource_names.push_back(graph.resource(r).name);
    const std::size_t nbins =
        prof.makespan > 0.0 ? ProfileOptions::kBins : 0;
    if (nbins > 0) {
        prof.bin_s = prof.makespan / static_cast<double>(nbins);
        prof.busy_bins.assign(graph.resourceCount(),
                              std::vector<double>(nbins, 0.0));
    }
    if (n == 0)
        return prof;

    // Event times propagate exactly through the scheduler (a task's
    // start IS the double of the completion that released it), so the
    // tolerance only guards against hypothetical fp drift.
    const double eps = std::max(prof.makespan, 1.0) * 1e-12;

    // When every dependency of a task was done (0 for source tasks).
    std::vector<double> ready(n, 0.0);
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : graph.deps(id))
            ready[id] = std::max(ready[id], schedule.finish[dep]);

    // ---------------------------------------------------- critical path
    // Walk backwards from the last-finishing task. Each step asks "why
    // did this task start exactly when it did?" — either a dependency
    // finished at that instant, or the task before it on the same
    // resource finished at that instant. The greedy scheduler starts
    // tasks the moment both constraints clear, so one of the two always
    // holds and the chain is contiguous from the makespan back to time 0.
    TaskId end_task = 0;
    for (TaskId id = 1; id < n; ++id)
        if (schedule.finish[id] > schedule.finish[end_task])
            end_task = id;

    std::vector<char> on_path(n, 0);
    std::vector<CriticalStep> rpath;
    TaskId cur = end_task;
    on_path[cur] = 1;
    for (;;) {
        const double s = schedule.start[cur];
        if (s <= eps) {
            rpath.push_back(CriticalStep{cur, CriticalLink::Start});
            break;
        }
        const TaskId dep = blockingDep(graph, schedule, cur);
        if (dep != kInvalidTask && schedule.finish[dep] >= s - eps &&
            !on_path[dep]) {
            rpath.push_back(CriticalStep{cur, CriticalLink::Dependency});
            cur = dep;
            on_path[cur] = 1;
            continue;
        }
        // Resource hand-off: the task holding the resource until s.
        TaskId holder = kInvalidTask;
        for (const TaskId id : schedule.order[graph.taskResource(cur)]) {
            if (id == cur || on_path[id])
                continue;
            if (std::abs(schedule.finish[id] - s) <= eps &&
                (holder == kInvalidTask || id < holder))
                holder = id;
        }
        if (holder != kInvalidTask) {
            rpath.push_back(CriticalStep{cur, CriticalLink::Resource});
            cur = holder;
            on_path[cur] = 1;
            continue;
        }
        if (dep != kInvalidTask && !on_path[dep]) {
            // Defensive: a gap in the chain (should not happen for
            // schedules produced by Scheduler::run). Keep walking via
            // the latest dependency so the path still reaches a source.
            rpath.push_back(CriticalStep{cur, CriticalLink::Dependency});
            cur = dep;
            on_path[cur] = 1;
            continue;
        }
        rpath.push_back(CriticalStep{cur, CriticalLink::Start});
        break;
    }
    prof.critical_steps = rpath.size();
    if (!prof.summarized)
        prof.critical_path.assign(rpath.rbegin(), rpath.rend());
    // Accumulate front-to-back: mirrors the scheduler's own finish-time
    // additions, so a contiguous chain sums to the makespan exactly.
    prof.critical_length = 0.0;
    for (auto it = rpath.rbegin(); it != rpath.rend(); ++it)
        prof.critical_length += graph.duration(it->task);

    std::map<std::string, double> phases;
    for (auto it = rpath.rbegin(); it != rpath.rend(); ++it)
        phases[phaseKey(graph.label(it->task))] +=
            graph.duration(it->task);
    prof.critical_phases = largestFirst(phases);

    // ------------------------------------------------------------ slack
    // Local slack: how far a finish could slip before bumping into the
    // earliest dependent, the next occupant of the same resource, or
    // the end of the iteration.
    std::vector<double> limit(n, prof.makespan);
    for (TaskId id = 0; id < n; ++id)
        for (TaskId dep : graph.deps(id))
            limit[dep] = std::min(limit[dep], schedule.start[id]);
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        // Successor on the same resource: the order is by start, so
        // each task bounds the one before it.
        const std::vector<TaskId> &tasks = schedule.order[r];
        for (std::size_t i = 1; i < tasks.size(); ++i)
            limit[tasks[i - 1]] =
                std::min(limit[tasks[i - 1]], schedule.start[tasks[i]]);
    }
    // The slack array is transient in Summary mode: the top-K lists
    // below retain everything a bounded profile answers with, in the
    // exact order topZeroSlackTasks() would sort the full array.
    TopK top_slack(ProfileOptions::kTopK);
    TopK top_zero(ProfileOptions::kTopK);
    for (TaskId id = 0; id < n; ++id) {
        const double s =
            std::max(0.0, limit[id] - schedule.finish[id]);
        if (!prof.summarized)
            prof.slack[id] = s;
        if (s > eps)
            top_slack.push(id, s);
        else if (graph.duration(id) > 0.0)
            top_zero.push(id, graph.duration(id));
    }
    prof.top_slack = top_slack.take();
    prof.top_zero_slack = top_zero.take();

    // All-tasks phase rollup: bounded by the phase vocabulary, not V.
    {
        std::map<std::string, double> busy_by_phase;
        for (TaskId id = 0; id < n; ++id)
            busy_by_phase[phaseKey(graph.label(id))] +=
                graph.duration(id);
        prof.phase_busy = largestFirst(busy_by_phase);
    }

    // ------------------------------------------------- idle attribution
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        ResourceProfile &rp = prof.resources[r];

        // Classify the gap that ends when `next` starts.
        auto classify = [&](TaskId next) {
            const double r_next = ready[next];
            if (r_next < schedule.start[next] - eps) {
                // Ready before it ran: only possible when the resource
                // was busy (not a dependency) and held it back.
                return IdleCause::ResourceContention;
            }
            // The gap waited on the latest-finishing dependency. If
            // that dependency itself queued behind other work on its
            // resource, the root cause is contention there (e.g. the
            // C2C link serializing transfers); otherwise it is pure
            // upstream latency.
            const TaskId dep = blockingDep(graph, schedule, next);
            if (dep != kInvalidTask &&
                schedule.start[dep] > ready[dep] + eps)
                return IdleCause::ResourceContention;
            return IdleCause::DependencyWait;
        };

        // Totals accrue per gap either way; the per-gap list itself is
        // only kept in Full detail.
        auto account = [&](const IdleGap &gap) {
            rp.idle += gap.length();
            switch (gap.cause) {
              case IdleCause::DependencyWait:
                rp.idle_dependency += gap.length();
                break;
              case IdleCause::ResourceContention:
                rp.idle_contention += gap.length();
                break;
              case IdleCause::Tail:
                rp.idle_tail += gap.length();
                break;
            }
            if (!prof.summarized)
                prof.gaps[r].push_back(gap);
        };

        // Sweep the resource's order, which is start-ordered and
        // disjoint: attribute the hole before each task and bin each
        // task's busy seconds (the tasks partition the union, so the
        // bins sum to rp.busy).
        std::vector<double> *bins_r =
            nbins > 0 ? &prof.busy_bins[r] : nullptr;
        double cursor = 0.0;
        for (const TaskId id : schedule.order[r]) {
            const double b = std::min(schedule.start[id], prof.makespan);
            const double e = std::min(schedule.finish[id], prof.makespan);
            if (b > cursor) {
                IdleGap gap;
                gap.begin = cursor;
                gap.end = b;
                gap.next_task = id;
                gap.cause = classify(id);
                account(gap);
            }
            if (bins_r != nullptr && e > b)
                addSpanToBins(*bins_r, prof.bin_s, b, e);
            cursor = e;
        }
        if (prof.makespan > cursor) {
            IdleGap gap;
            gap.begin = cursor;
            gap.end = prof.makespan;
            gap.cause = IdleCause::Tail;
            account(gap);
        }
        rp.busy = prof.makespan - rp.idle;
    }

    return prof;
}

namespace {

/**
 * The per-resource metering rule attributeEnergy and meterEnergy
 * share: busy watts over each resource's union-busy seconds
 * (@p time[r].busy), idle watts over its idle seconds, the per-byte
 * toll over the bytes its tasks moved; then the background draws over
 * @p makespan and the totals. Idle-cause joules stay zero.
 */
EnergyTotals
meterResources(const TaskGraph &graph, const EnergyInputs &inputs,
               const std::vector<ResourceProfile> &time, double makespan)
{
    const std::size_t n = graph.taskCount();
    EnergyTotals energy;
    energy.valid = true;
    energy.makespan = makespan;
    energy.resources.resize(graph.resourceCount());
    energy.resource_names.reserve(graph.resourceCount());
    std::vector<double> res_bytes(graph.resourceCount(), 0.0);
    for (TaskId id = 0; id < n && id < inputs.task_bytes.size(); ++id)
        res_bytes[graph.taskResource(id)] += inputs.task_bytes[id];
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        const ResourcePower rp = r < inputs.resources.size()
                                     ? inputs.resources[r]
                                     : ResourcePower{};
        ResourceEnergy &re = energy.resources[r];
        re.busy_w = rp.busy_w;
        re.idle_w = rp.idle_w;
        re.joules_per_byte = rp.joules_per_byte;
        re.busy_j = rp.busy_w * time[r].busy;
        re.transfer_j = rp.joules_per_byte * res_bytes[r];
        re.idle_j = rp.idle_w * time[r].idle;
        energy.active_j += re.busy_j + re.transfer_j;
        energy.idle_j += re.idle_j;
        energy.resource_names.push_back(graph.resource(r).name);
    }

    for (const auto &[name, watts] : inputs.background) {
        const double joules = watts * makespan;
        energy.background.emplace_back(name, joules);
        energy.background_j += joules;
    }

    energy.total_j =
        energy.active_j + energy.idle_j + energy.background_j;
    energy.avg_w = makespan > 0.0 ? energy.total_j / makespan : 0.0;
    return energy;
}

} // namespace

EnergyProfile
attributeEnergy(const TaskGraph &graph, const Schedule &schedule,
                const ScheduleProfile &profile, const EnergyInputs &inputs,
                const ProfileOptions &options)
{
    trace::Span span(trace::Category::Profile, "energy");
    const std::size_t n = graph.taskCount();
    SO_ASSERT(profile.resources.size() == graph.resourceCount(),
              "profile does not match graph");

    // Per-resource view: busy joules on the union busy time (equal to
    // the per-task sum, since a resource runs one task at a time),
    // transfer joules on the bytes the resource's tasks moved, idle
    // joules partitioned by the profiler's own idle-cause attribution.
    EnergyProfile energy;
    static_cast<EnergyTotals &>(energy) = meterResources(
        graph, inputs, profile.resources, profile.makespan);
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        const ResourceProfile &prof_r = profile.resources[r];
        ResourceEnergy &re = energy.resources[r];
        re.idle_dependency_j = re.idle_w * prof_r.idle_dependency;
        re.idle_contention_j = re.idle_w * prof_r.idle_contention;
        re.idle_tail_j = re.idle_w * prof_r.idle_tail;
    }

    energy.summarized = options.summarized(n);
    if (!energy.summarized)
        energy.task_j.assign(n, 0.0);
    const std::size_t nbins =
        profile.makespan > 0.0 ? ProfileOptions::kBins : 0;
    if (nbins > 0) {
        energy.bin_s = profile.makespan / static_cast<double>(nbins);
        energy.energy_bins.assign(graph.resourceCount(),
                                  std::vector<double>(nbins, 0.0));
    }

    // Per-task joules: time-proportional busy draw plus the per-byte
    // switching toll. Phase roll-up uses the same phaseKey grouping as
    // the critical-path breakdown so the joule bars and the Fig.4 time
    // bars line up phase-for-phase. Each task's joules also spread
    // uniformly over its scheduled span into the per-resource bins, so
    // a bin row sums to the per-task joules of that resource's tasks.
    std::map<std::string, double> phases;
    TopK top_tasks(ProfileOptions::kTopK);
    TopK top_bytes(ProfileOptions::kTopK);
    for (TaskId id = 0; id < n; ++id) {
        const ResourceId res = graph.taskResource(id);
        const ResourceEnergy &re = energy.resources[res];
        const double task_bytes =
            id < inputs.task_bytes.size() ? inputs.task_bytes[id] : 0.0;
        const double task_j = re.busy_w * graph.duration(id) +
                              re.joules_per_byte * task_bytes;
        if (!energy.summarized)
            energy.task_j[id] = task_j;
        phases[phaseKey(graph.label(id))] += task_j;
        if (task_j > 0.0)
            top_tasks.push(id, task_j);
        if (task_bytes > 0.0)
            top_bytes.push(id, task_bytes);
        if (nbins > 0 && task_j > 0.0) {
            std::vector<double> &bins_r = energy.energy_bins[res];
            const double s = schedule.start[id];
            const double f = schedule.finish[id];
            if (f > s)
                addSpanToBins(bins_r, energy.bin_s, s, f,
                              task_j / (f - s));
            else
                bins_r[binIndex(bins_r, energy.bin_s, s)] += task_j;
        }
    }
    energy.top_tasks = top_tasks.take();
    energy.top_bytes = top_bytes.take();
    energy.phases = largestFirst(phases);
    return energy;
}

EnergyTotals
meterEnergy(const TaskGraph &graph, const Schedule &schedule,
            const EnergyInputs &inputs)
{
    SO_ASSERT(schedule.order.size() == graph.resourceCount(),
              "schedule orders do not match graph resources");
    // Union busy seconds straight off the orders; the idle seconds are
    // the rest of the makespan, with no cause split.
    std::vector<ResourceProfile> time(graph.resourceCount());
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        time[r].busy = schedule.busyTime(r, 0.0, schedule.makespan);
        time[r].idle = schedule.makespan - time[r].busy;
    }
    return meterResources(graph, inputs, time, schedule.makespan);
}

std::vector<TaskId>
topZeroSlackTasks(const ScheduleProfile &profile, const TaskGraph &graph,
                  std::size_t top_k)
{
    if (profile.slack.empty()) {
        // Summary profile: the full array is gone, but the retained
        // top-K list ranks by the identical (duration desc, id asc)
        // order, so it is a prefix of what the full sort would give.
        std::vector<TaskId> hot;
        for (const TopTask &t : profile.top_zero_slack) {
            if (hot.size() >= top_k)
                break;
            hot.push_back(t.task);
        }
        return hot;
    }
    const double eps = std::max(profile.makespan, 1.0) * 1e-12;
    std::vector<TaskId> hot;
    for (TaskId id = 0; id < graph.taskCount(); ++id)
        if (profile.slack[id] <= eps && graph.duration(id) > 0.0)
            hot.push_back(id);
    std::sort(hot.begin(), hot.end(), [&](TaskId a, TaskId b) {
        if (graph.duration(a) != graph.duration(b))
            return graph.duration(a) > graph.duration(b);
        return a < b;
    });
    if (hot.size() > top_k)
        hot.resize(top_k);
    return hot;
}

namespace {

/** Shared body of profileToJson / streamProfileJson. */
void
writeProfileDoc(JsonWriter &json, const ScheduleProfile &profile,
                const TaskGraph &graph, const Schedule &schedule,
                std::size_t top_slack, const EnergyProfile *energy)
{
    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("makespan_s", profile.makespan);
    json.field("detail", profile.summarized ? "summary" : "full");
    json.field("task_count",
               static_cast<std::uint64_t>(profile.task_count));

    json.key("critical_path").beginObject();
    json.field("length_s", profile.critical_length);
    json.field("steps",
               static_cast<std::uint64_t>(profile.critical_steps));
    json.key("tasks").beginArray();
    for (const CriticalStep &step : profile.critical_path) {
        json.beginObject();
        json.field("task", step.task);
        json.field("label", graph.label(step.task));
        json.field("resource",
                   graph.resource(graph.taskResource(step.task)).name);
        json.field("start_s", schedule.start[step.task]);
        json.field("duration_s", graph.duration(step.task));
        json.field("link", linkName(step.link));
        json.endObject();
    }
    json.endArray();
    json.key("phases").beginArray();
    for (const auto &[phase, seconds] : profile.critical_phases) {
        json.beginObject();
        json.field("phase", phase);
        json.field("seconds", seconds);
        json.field("share", profile.critical_length > 0.0
                                ? seconds / profile.critical_length
                                : 0.0);
        json.endObject();
    }
    json.endArray();
    json.endObject();

    // Longest zero-slack tasks: where optimization effort pays off.
    const std::vector<TaskId> hot =
        topZeroSlackTasks(profile, graph, top_slack);
    json.key("zero_slack_tasks").beginArray();
    for (TaskId id : hot) {
        json.beginObject();
        json.field("label", graph.label(id));
        json.field("resource",
                   graph.resource(graph.taskResource(id)).name);
        json.field("duration_s", graph.duration(id));
        json.endObject();
    }
    json.endArray();

    // Largest-slack tasks: where an off-path stall has the most room.
    json.key("top_slack_tasks").beginArray();
    for (const TopTask &t : profile.top_slack) {
        json.beginObject();
        json.field("label", graph.label(t.task));
        json.field("resource",
                   graph.resource(graph.taskResource(t.task)).name);
        json.field("slack_s", t.value);
        json.endObject();
    }
    json.endArray();

    // All-tasks phase rollup (bounded by the phase vocabulary).
    double phase_busy_total = 0.0;
    for (const auto &[phase, seconds] : profile.phase_busy)
        phase_busy_total += seconds;
    json.key("phase_busy").beginArray();
    for (const auto &[phase, seconds] : profile.phase_busy) {
        json.beginObject();
        json.field("phase", phase);
        json.field("seconds", seconds);
        json.field("share", phase_busy_total > 0.0
                                ? seconds / phase_busy_total
                                : 0.0);
        json.endObject();
    }
    json.endArray();

    json.key("resources").beginArray();
    for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
        const ResourceProfile &rp = profile.resources[r];
        json.beginObject();
        json.field("resource", graph.resource(r).name);
        json.field("busy_s", rp.busy);
        json.field("idle_s", rp.idle);
        json.field("utilization", profile.makespan > 0.0
                                      ? rp.busy / profile.makespan
                                      : 0.0);
        json.field("idle_dependency_s", rp.idle_dependency);
        json.field("idle_contention_s", rp.idle_contention);
        json.field("idle_tail_s", rp.idle_tail);
        json.key("gaps").beginArray();
        for (const IdleGap &gap : profile.gaps[r]) {
            json.beginObject();
            json.field("begin_s", gap.begin);
            json.field("end_s", gap.end);
            json.field("cause", idleCauseName(gap.cause));
            if (gap.next_task != kInvalidTask)
                json.field("next", graph.label(gap.next_task));
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();

    // Binned occupancy histograms: the bounded stand-in for per-task
    // data — each row sums to the resource's union busy seconds.
    if (!profile.busy_bins.empty()) {
        json.key("bins").beginObject();
        json.field("bin_s", profile.bin_s);
        json.field("count", static_cast<std::uint64_t>(
                                profile.busy_bins[0].size()));
        json.key("resources").beginArray();
        for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
            json.beginObject();
            json.field("resource", graph.resource(r).name);
            json.key("busy_s").beginArray();
            for (double v : profile.busy_bins[r])
                json.value(v);
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    // Joule attribution (docs/ENERGY.md). Key suffixes are load-bearing
    // for the bench guard: *_j gates lower-is-better, *_w is exempt.
    if (energy != nullptr && energy->valid) {
        json.key("energy").beginObject();
        json.field("total_j", energy->total_j);
        json.field("active_j", energy->active_j);
        json.field("idle_j", energy->idle_j);
        json.field("background_j", energy->background_j);
        json.field("avg_w", energy->avg_w);
        json.key("phases").beginArray();
        for (const auto &[phase, joules] : energy->phases) {
            json.beginObject();
            json.field("phase", phase);
            json.field("joules", joules);
            json.field("share", energy->active_j > 0.0
                                    ? joules / energy->active_j
                                    : 0.0);
            json.endObject();
        }
        json.endArray();
        json.key("resources").beginArray();
        for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
            const ResourceEnergy &re = energy->resources[r];
            json.beginObject();
            json.field("resource", graph.resource(r).name);
            json.field("busy_w", re.busy_w);
            json.field("idle_w", re.idle_w);
            json.field("busy_j", re.busy_j);
            json.field("transfer_j", re.transfer_j);
            json.field("idle_j", re.idle_j);
            json.field("idle_dependency_j", re.idle_dependency_j);
            json.field("idle_contention_j", re.idle_contention_j);
            json.field("idle_tail_j", re.idle_tail_j);
            json.endObject();
        }
        json.endArray();
        json.key("background").beginArray();
        for (const auto &[name, joules] : energy->background) {
            json.beginObject();
            json.field("name", name);
            json.field("joules", joules);
            json.endObject();
        }
        json.endArray();
        // Binned joules and top-K tasks: the bounded stand-in for the
        // per-task task_j array.
        if (!energy->energy_bins.empty()) {
            json.key("bins").beginObject();
            json.field("bin_s", energy->bin_s);
            json.field("count", static_cast<std::uint64_t>(
                                    energy->energy_bins[0].size()));
            json.key("resources").beginArray();
            for (ResourceId r = 0; r < graph.resourceCount(); ++r) {
                json.beginObject();
                json.field("resource", graph.resource(r).name);
                json.key("joules").beginArray();
                for (double v : energy->energy_bins[r])
                    json.value(v);
                json.endArray();
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.key("top_tasks").beginArray();
        for (const TopTask &t : energy->top_tasks) {
            json.beginObject();
            json.field("label", graph.label(t.task));
            json.field("resource",
                       graph.resource(graph.taskResource(t.task)).name);
            json.field("joules", t.value);
            json.endObject();
        }
        json.endArray();
        json.key("top_bytes").beginArray();
        for (const TopTask &t : energy->top_bytes) {
            json.beginObject();
            json.field("label", graph.label(t.task));
            json.field("resource",
                       graph.resource(graph.taskResource(t.task)).name);
            json.field("bytes", t.value);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    json.endObject();
}

} // namespace

std::string
profileToJson(const ScheduleProfile &profile, const TaskGraph &graph,
              const Schedule &schedule, std::size_t top_slack,
              const EnergyProfile *energy)
{
    trace::Span span(trace::Category::Serialize, "profile-json");
    JsonWriter json;
    writeProfileDoc(json, profile, graph, schedule, top_slack, energy);
    return json.str();
}

void
streamProfileJson(std::ostream &out, const ScheduleProfile &profile,
                  const TaskGraph &graph, const Schedule &schedule,
                  std::size_t top_slack, const EnergyProfile *energy)
{
    trace::Span span(trace::Category::Serialize, "profile-json");
    JsonWriter json(out);
    writeProfileDoc(json, profile, graph, schedule, top_slack, energy);
}

} // namespace so::sim
