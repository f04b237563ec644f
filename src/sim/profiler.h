/**
 * @file
 * Post-hoc schedule profiling: critical-path extraction, per-task
 * slack, and per-resource idle-gap attribution.
 *
 * The simulator (scheduler.h) says how long an iteration takes; this
 * module says *why*. It recovers, from a finished Schedule, the chain
 * of tasks that determined the makespan (the critical path), how much
 * each off-path task could slip without stretching the iteration
 * (slack), and — for every resource — what each idle gap was waiting
 * on: an upstream dependency still computing (dependency-wait), an
 * upstream dependency stuck in another resource's queue
 * (resource-contention, e.g. the C2C link serializing bucket
 * transfers), or simply no work left this iteration (tail). These are
 * exactly the quantities behind the paper's Fig. 4 idle-time and
 * Fig. 15 GPU-utilization breakdowns, and the per-resource attribution
 * mirrors the bottleneck analyses in MLP-Offload and HyperOffload.
 *
 * Invariants (tested): the critical path is a contiguous chain from
 * time 0 to the makespan, so its length equals the makespan; per
 * resource, the classified gaps partition its idle time, the makespan
 * minus Schedule::busyTime(r, 0, makespan).
 */
#ifndef SO_SIM_PROFILER_H
#define SO_SIM_PROFILER_H

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim {

/**
 * Level-of-detail control for profileSchedule / attributeEnergy.
 *
 * Full detail keeps the O(V) per-task arrays (slack, task_j, per-gap
 * lists) exactly as before. Summary detail drops them and keeps only
 * bounded aggregates — per-resource time-binned histograms, phase
 * rollups, and top-K task lists — so a profile of a 10M-task schedule
 * costs O(R·bins + K + phases) memory instead of hundreds of MB
 * (docs/OBSERVABILITY.md has the scaling matrix). Auto picks Summary
 * once the graph crosses kAutoSummaryTasks.
 *
 * Conservation holds in both modes and is pinned by tests: per
 * resource, the binned busy seconds sum to the union busy time and the
 * binned joules sum to the per-task joules on that resource, both to
 * 1e-9 relative.
 */
struct ProfileOptions
{
    enum class Detail
    {
        /** Summary at/above kAutoSummaryTasks tasks, Full below. */
        Auto,
        /** Keep every per-task array (the pre-LOD behaviour). */
        Full,
        /** Bounded aggregates only; per-task arrays stay empty. */
        Summary,
    };

    Detail detail = Detail::Auto;

    /** Histogram bins over [0, makespan]. */
    static constexpr std::size_t kBins = 256;
    /** Entries retained in each top-K task list. */
    static constexpr std::size_t kTopK = 32;
    /** Task count at which Auto switches to Summary. */
    static constexpr std::size_t kAutoSummaryTasks = 200'000;

    /** Whether a graph of @p tasks tasks profiles in Summary mode. */
    bool
    summarized(std::size_t tasks) const
    {
        if (detail == Detail::Full)
            return false;
        if (detail == Detail::Summary)
            return true;
        return tasks >= kAutoSummaryTasks;
    }
};

/** One entry of a top-K task list: the task plus its ranking value
 *  (seconds of slack, joules, bytes — whatever the list ranks by). */
struct TopTask
{
    TaskId task = kInvalidTask;
    double value = 0.0;
};

/** What an idle gap on a resource was waiting on. */
enum class IdleCause
{
    /** The next task's dependency was still executing. */
    DependencyWait,
    /** The next task's dependency sat queued behind other work. */
    ResourceContention,
    /** No further task runs on the resource this iteration. */
    Tail,
};

/** Display name of an IdleCause ("dependency-wait", ...). */
const char *idleCauseName(IdleCause cause);

/** One idle interval on a resource, with its attributed cause. */
struct IdleGap
{
    double begin = 0.0;
    double end = 0.0;
    IdleCause cause = IdleCause::Tail;
    /** Task whose start closes the gap; kInvalidTask for tail gaps. */
    TaskId next_task = kInvalidTask;

    double length() const { return end - begin; }
};

/** Busy/idle accounting of one resource over [0, makespan). */
struct ResourceProfile
{
    /** Busy time: the union of the resource's intervals. */
    double busy = 0.0;
    /** makespan - busy; equals the sum of the gap lengths. */
    double idle = 0.0;
    double idle_dependency = 0.0;
    double idle_contention = 0.0;
    double idle_tail = 0.0;
};

/** How a critical-path task's start time is explained. */
enum class CriticalLink
{
    /** First task of the chain (starts at time 0). */
    Start,
    /** Started the instant a dependency finished. */
    Dependency,
    /** Started the instant its resource finished the task before. */
    Resource,
};

/** One step of the critical path, in execution order. */
struct CriticalStep
{
    TaskId task = kInvalidTask;
    CriticalLink link = CriticalLink::Start;
};

/**
 * The bounded, graph-free part of a schedule profile: O(resources +
 * phases) no matter how large the graph. It is what an
 * IterationResult keeps (runtime::ProfileSummary), what the result
 * document renders, and what a profile diff reads (report/diff.h).
 */
struct ProfileTotals
{
    double makespan = 0.0;

    /** Sum of critical-path task durations (== makespan when the chain
     * is contiguous, which the deterministic greedy scheduler
     * guarantees). */
    double critical_length = 0.0;

    /**
     * Critical-path seconds grouped by label phase (phaseKey in
     * sim/trace.h), largest first — the "which phase bounds the
     * iteration" answer.
     */
    std::vector<std::pair<std::string, double>> critical_phases;

    /** Indexed by ResourceId. */
    std::vector<ResourceProfile> resources;

    /**
     * Display names of the resources, indexed by ResourceId — copied
     * from the graph so a profile can be rendered or diffed (see
     * report/diff.h) without the TaskGraph that produced it.
     */
    std::vector<std::string> resource_names;
};

/** Full profile of one (TaskGraph, Schedule) pair. */
struct ScheduleProfile : ProfileTotals
{
    /** Whether the per-task arrays were elided (Summary detail). */
    bool summarized = false;

    /** Tasks in the profiled graph (kept even when arrays are not). */
    std::size_t task_count = 0;

    /**
     * The makespan-determining chain, first task first. Empty in
     * Summary mode — critical_steps, critical_length and
     * critical_phases still describe the walked chain.
     */
    std::vector<CriticalStep> critical_path;

    /** Steps in the walked chain (== critical_path.size() in Full). */
    std::size_t critical_steps = 0;

    /**
     * Per-task local slack: how far the task's finish could slip —
     * holding everything else fixed — before it would delay a
     * dependent, the next task on its resource, or the
     * makespan. Critical-path tasks have zero slack. Empty in Summary
     * mode — use top_slack / top_zero_slack instead.
     */
    std::vector<double> slack;

    /** Histogram bin width in seconds (0 for a zero makespan). The
     *  bins tile [0, makespan]; the last bin absorbs the boundary. */
    double bin_s = 0.0;

    /**
     * Per-resource union-busy seconds per time bin, indexed
     * [ResourceId][bin]. Conservation: each row sums to the matching
     * ResourceProfile::busy (1e-9 relative, pinned in tests).
     */
    std::vector<std::vector<double>> busy_bins;

    /** Total task-seconds per label phase, largest first — the
     *  all-tasks counterpart of critical_phases. */
    std::vector<std::pair<std::string, double>> phase_busy;

    /** Largest-slack tasks (value = slack seconds), capped at
     *  ProfileOptions::kTopK, largest first. */
    std::vector<TopTask> top_slack;

    /**
     * Longest zero-slack tasks (value = duration seconds), capped at
     * ProfileOptions::kTopK — the same ranking topZeroSlackTasks()
     * computes from the full slack array, retained so Summary profiles
     * can still answer it.
     */
    std::vector<TopTask> top_zero_slack;

    /**
     * Per-gap idle lists, indexed by ResourceId; each list is empty in
     * Summary mode (the ResourceProfile totals are kept).
     */
    std::vector<std::vector<IdleGap>> gaps;
};

/** Analyze @p schedule of @p graph (schedule must come from it). */
ScheduleProfile profileSchedule(const TaskGraph &graph,
                                const Schedule &schedule,
                                const ProfileOptions &options = {});

/**
 * Electrical inputs of one resource. Plain numbers so the sim layer
 * stays hardware-agnostic; hw::PowerModel (hw/power.h) is the usual
 * producer, keyed by resource name in the runtime builder.
 */
struct ResourcePower
{
    /** Draw while a task runs on the resource, in watts. */
    double busy_w = 0.0;
    /** Floor draw while the resource idles, in watts. */
    double idle_w = 0.0;
    /** Switching energy per byte a task moves, in joules/byte. */
    double joules_per_byte = 0.0;
};

/** Everything attributeEnergy needs beyond the schedule itself. */
struct EnergyInputs
{
    /** Indexed by ResourceId; missing entries meter as zero watts. */
    std::vector<ResourcePower> resources;
    /**
     * Bytes moved by each task (indexed by TaskId; may be shorter than
     * the graph — missing entries move zero bytes). Only meaningful on
     * resources with a nonzero joules_per_byte.
     */
    std::vector<double> task_bytes;
    /** Static draws accruing for the whole makespan (name, watts). */
    std::vector<std::pair<std::string, double>> background;
};

/** Joule accounting of one resource over [0, makespan). */
struct ResourceEnergy
{
    /** The watts this resource was metered at (copied from inputs). */
    double busy_w = 0.0;
    double idle_w = 0.0;
    double joules_per_byte = 0.0;

    /** busy_w × union busy time. */
    double busy_j = 0.0;
    /** joules_per_byte × bytes moved by the resource's tasks. */
    double transfer_j = 0.0;
    /** idle_w × idle time; the cause terms partition it exactly. */
    double idle_j = 0.0;
    double idle_dependency_j = 0.0;
    double idle_contention_j = 0.0;
    double idle_tail_j = 0.0;
};

/**
 * The bounded, graph-free joule accounting of one schedule: what an
 * IterationResult keeps (runtime::EnergySummary) and renders.
 *
 * Invariants (tested to 1e-9 relative, see tests/sim/test_energy.cpp):
 * per resource busy_j / idle_j reproduce busy_w × busy and
 * idle_w × idle, and total_j == active_j + idle_j + background_j.
 */
struct EnergyTotals
{
    bool valid = false;
    double makespan = 0.0;

    /** Task-attributed energy: busy watts × spans + per-byte tolls. */
    double active_j = 0.0;
    /** Idle-floor energy across all resources. */
    double idle_j = 0.0;
    /** Static draws (DRAM refresh) × makespan. */
    double background_j = 0.0;
    /** active_j + idle_j + background_j. */
    double total_j = 0.0;
    /** total_j / makespan (0 when the makespan is 0). */
    double avg_w = 0.0;

    /** Indexed by ResourceId (parallel to ScheduleProfile). */
    std::vector<ResourceEnergy> resources;

    /** Display names of the resources, indexed by ResourceId. */
    std::vector<std::string> resource_names;

    /**
     * Task joules grouped by label phase (same phaseKey grouping as
     * the critical-path breakdown), largest first — the "which phase
     * burns the joules" answer next to "which phase bounds the time".
     * Empty from meterEnergy, which has no profile to roll up.
     */
    std::vector<std::pair<std::string, double>> phases;

    /** Background draws as (name, joules) over the makespan. */
    std::vector<std::pair<std::string, double>> background;
};

/**
 * Joule attribution of one profiled schedule: the totals plus the
 * per-task view. Beyond the EnergyTotals invariants, the per-phase
 * energies sum to active_j (a resource runs one task at a time, so
 * per-task busy seconds sum to union busy time) and per
 * resource the idle-cause joules partition idle_j.
 */
struct EnergyProfile : EnergyTotals
{
    /** Whether the per-task array was elided (Summary detail). */
    bool summarized = false;

    /** Per-task joules: busy_w × duration + joules_per_byte × bytes.
     *  Empty in Summary mode — use energy_bins / top_tasks instead. */
    std::vector<double> task_j;

    /** Histogram bin width in seconds (0 for a zero makespan). */
    double bin_s = 0.0;

    /**
     * Per-resource task joules per time bin, indexed
     * [ResourceId][bin]: each task's joules spread uniformly over its
     * span (zero-duration tasks land in their start bin).
     * Conservation: each row sums to the per-task joules of that
     * resource's tasks (1e-9 relative, pinned in tests).
     */
    std::vector<std::vector<double>> energy_bins;

    /** Highest-joule tasks (value = joules), capped at
     *  ProfileOptions::kTopK, largest first. */
    std::vector<TopTask> top_tasks;

    /** Highest-byte tasks (value = bytes moved), capped at
     *  ProfileOptions::kTopK, largest first; empty when no task moves
     *  bytes. */
    std::vector<TopTask> top_bytes;
};

/**
 * Meter @p profile's schedule with @p inputs. Purely observational:
 * reads the same spans and idle gaps the profiler attributed, never
 * changes them.
 */
EnergyProfile attributeEnergy(const TaskGraph &graph,
                              const Schedule &schedule,
                              const ScheduleProfile &profile,
                              const EnergyInputs &inputs,
                              const ProfileOptions &options = {});

/**
 * Meter @p schedule with @p inputs without a profile: the same
 * per-resource rule as attributeEnergy, fed each resource's union busy
 * seconds (Schedule::busyTime), so the totals match the profiled
 * attribution while the idle-cause joules and phases stay empty.
 */
EnergyTotals meterEnergy(const TaskGraph &graph, const Schedule &schedule,
                         const EnergyInputs &inputs);

/**
 * The (at most @p top_k) longest nonzero-duration tasks with zero
 * slack, longest first — the tasks where a speedup would immediately
 * shorten the iteration. On a Summary profile the answer comes from
 * the retained top_zero_slack list, so at most
 * ProfileOptions::kTopK entries exist regardless of @p top_k.
 */
std::vector<TaskId> topZeroSlackTasks(const ScheduleProfile &profile,
                                      const TaskGraph &graph,
                                      std::size_t top_k = 8);

/**
 * The profile as one standalone JSON document: critical path (tasks,
 * length, phase shares), per-resource busy/idle splits with per-gap
 * causes, the top-@p top_slack zero-slack tasks by duration, and —
 * for a nonzero makespan — a "bins" subtree with the per-resource
 * occupancy histograms. When @p energy is given (and valid) the
 * document gains an "energy" subtree: totals, per-phase joules,
 * per-resource joule splits, and binned joules (docs/ENERGY.md).
 * Summary profiles carry `"detail":"summary"` and elide the per-task
 * arrays (empty critical_path tasks, no per-gap lists).
 */
std::string profileToJson(const ScheduleProfile &profile,
                          const TaskGraph &graph,
                          const Schedule &schedule,
                          std::size_t top_slack = 8,
                          const EnergyProfile *energy = nullptr);

/** profileToJson streamed to @p out: peak memory stays bounded no
 *  matter how large the profile document grows. */
void streamProfileJson(std::ostream &out, const ScheduleProfile &profile,
                       const TaskGraph &graph, const Schedule &schedule,
                       std::size_t top_slack = 8,
                       const EnergyProfile *energy = nullptr);

} // namespace so::sim

#endif // SO_SIM_PROFILER_H
