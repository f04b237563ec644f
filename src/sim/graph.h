/**
 * @file
 * Task-graph representation for the discrete-event simulator.
 *
 * Every training system in this library (§5 of the paper compares eight
 * of them) is expressed as a directed acyclic graph of tasks. A task
 * occupies one resource (GPU compute stream, CPU cores, one direction
 * of the C2C link, a NIC, ...) for a fixed duration, and a resource runs
 * one task at a time: the serialized lanes of the paper's Figs. 3 and 8.
 * Edges are happens-before dependencies, and a task may depend only on
 * tasks added before it, so every graph is acyclic by construction. The
 * scheduler (scheduler.h) then derives start/finish times, the makespan,
 * and each resource's tasks in start order — which is exactly the
 * information the paper's throughput and idle-time figures are built
 * from.
 *
 * Storage layout: tasks are kept structure-of-arrays. Durations,
 * resource bindings, and priorities live in parallel vectors; labels are
 * interned into one shared character arena (duplicate labels may share
 * storage); dependency lists live in one shared edge pool, contiguous
 * per task. Building a graph therefore costs O(log n) vector growths in
 * total instead of two heap allocations per task, which is what makes
 * sweeping thousands of simulated iterations cheap (see docs/PERF.md).
 */
#ifndef SO_SIM_GRAPH_H
#define SO_SIM_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace so::sim {

/** Index of a resource within a TaskGraph. */
using ResourceId = std::uint32_t;

/** Index of a task within a TaskGraph. */
using TaskId = std::uint32_t;

inline constexpr TaskId kInvalidTask =
    std::numeric_limits<TaskId>::max();

/**
 * How many distinct priorities one graph may span (max - min + 1). The
 * scheduler keeps one ready bucket per priority in the span; builders
 * use -1, 0 and 1.
 */
inline constexpr std::int64_t kMaxPrioritySpan = 4096;

/** An execution resource; it runs one task at a time. */
struct Resource
{
    std::string name;
};

/**
 * Borrowed, read-only dependency list accepted by TaskGraph::addTask.
 * Converts implicitly from a brace list, a vector, or a span, so call
 * sites write `{a, b}` without materializing a heap-allocated vector.
 * Views only — the referenced storage must outlive the call.
 */
class DepView
{
  public:
    constexpr DepView() = default;
    // The view never outlives the full-expression it appears in (addTask
    // copies the ids during the call), so borrowing the initializer
    // list's backing array is safe despite the lifetime warning.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winit-list-lifetime"
#endif
    DepView(std::initializer_list<TaskId> deps)
        : data_(deps.begin()), size_(deps.size())
    {
    }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    DepView(const std::vector<TaskId> &deps)
        : data_(deps.data()), size_(deps.size())
    {
    }
    constexpr DepView(std::span<const TaskId> deps)
        : data_(deps.data()), size_(deps.size())
    {
    }

    const TaskId *begin() const { return data_; }
    const TaskId *end() const { return data_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    TaskId operator[](std::size_t i) const { return data_[i]; }

  private:
    const TaskId *data_ = nullptr;
    std::size_t size_ = 0;
};

/** Builder/owner of resources and tasks forming one simulated iteration. */
class TaskGraph
{
  public:
    /** Register a resource; returns its id. */
    ResourceId addResource(std::string name);

    /**
     * Add a task; @p deps must reference previously added tasks, and
     * the graph's priorities must stay within kMaxPrioritySpan.
     */
    TaskId addTask(ResourceId resource, double duration,
                   std::string_view label, DepView deps = {},
                   std::int32_t priority = 0);

    /**
     * Pre-size the task arrays for @p count tasks (builders know the
     * schedule shape, so they can reserve the exact count up front).
     * @p label_bytes additionally pre-sizes the label arena.
     */
    void reserveTasks(std::size_t count, std::size_t label_bytes = 0);

    /** Pre-size the shared dependency pool for @p count edges. */
    void reserveEdges(std::size_t count);

    const std::vector<Resource> &resources() const { return resources_; }

    const Resource &resource(ResourceId id) const;

    /// @name Per-task accessors
    /// @{
    /**
     * The task's label. The view aliases the shared arena: it is
     * invalidated by the next addTask() call, so copy it when keeping
     * it across graph mutations.
     */
    std::string_view label(TaskId id) const;

    /** Execution time in seconds; may be zero (pure ordering point). */
    double duration(TaskId id) const;

    /** The resource the task occupies. */
    ResourceId taskResource(TaskId id) const;

    /**
     * Tie-break rank when several tasks are ready on the same resource;
     * lower runs first, equal ranks fall back to insertion order.
     */
    std::int32_t priority(TaskId id) const;

    /**
     * IDs of tasks that must finish before this one may start, in the
     * order they were added. The span aliases the shared edge pool: it
     * is invalidated by the next addTask() call.
     */
    std::span<const TaskId> deps(TaskId id) const;

    std::size_t depCount(TaskId id) const;

    /**
     * IDs of tasks that depend on this one (the reverse edges), in
     * ascending id order. Backed by a CSR index built lazily after the
     * last mutation and cached with the graph, so every scheduler run
     * over the same graph reuses one build — sweeps used to pay this
     * rebuild per run (docs/PERF.md). The span aliases the cache: it is
     * invalidated by the next addTask() call.
     */
    std::span<const TaskId> dependents(TaskId id) const;

    /**
     * Build the dependents CSR now if the graph changed since the last
     * build. Implicit in dependents() and Scheduler::run; call it
     * explicitly before sharing one graph across threads (the lazy
     * build mutates the cache and is not synchronized).
     */
    void finalizeDependents() const;
    /// @}

    std::size_t taskCount() const { return durations_.size(); }
    std::size_t resourceCount() const { return resources_.size(); }

    /** Number of dependency edges across all tasks. */
    std::size_t edgeCount() const { return edges_.size(); }

    /**
     * Smallest/largest task priority in the graph (0/0 when empty).
     * Their span is at most kMaxPrioritySpan, which is what lets the
     * scheduler keep O(1) priority-bucketed ready sets.
     */
    std::int32_t minPriority() const
    {
        return durations_.empty() ? 0 : min_priority_;
    }
    std::int32_t maxPriority() const
    {
        return durations_.empty() ? 0 : max_priority_;
    }

    /** Bytes currently held by the label arena (diagnostics). */
    std::size_t labelArenaBytes() const { return label_arena_.size(); }

    /**
     * Tasks and dependency edges the graph's arrays hold room for
     * (diagnostics: how closely a builder's reservation fits).
     */
    std::size_t taskCapacity() const { return durations_.capacity(); }
    std::size_t edgeCapacity() const { return edges_.capacity(); }

    /** Total duration of all tasks bound to @p resource. */
    double totalWork(ResourceId resource) const;

  private:
    /** Offset/length of an interned label inside label_arena_. */
    struct LabelRef
    {
        std::uint32_t offset = 0;
        std::uint32_t length = 0;
    };

    /** Begin/count of a task's dependency run inside edges_. */
    struct DepRef
    {
        std::uint32_t begin = 0;
        std::uint32_t count = 0;
    };

    /** Copy @p label into the arena (or reuse an identical entry). */
    LabelRef internLabel(std::string_view label);

    std::vector<Resource> resources_;

    // Structure-of-arrays task storage; all indexed by TaskId.
    std::vector<double> durations_;
    std::vector<ResourceId> task_resource_;
    std::vector<std::int32_t> priorities_;
    std::vector<LabelRef> labels_;
    std::vector<DepRef> dep_refs_;

    // Shared label arena + hash -> offset intern table. The table maps a
    // label's byte hash to the arena entry that first carried it; a hash
    // collision merely stores the colliding label a second time.
    std::string label_arena_;
    std::unordered_map<std::uint64_t, LabelRef> label_intern_;

    // Shared dependency pool: each task's deps occupy one contiguous
    // run, appended when the task is added.
    std::vector<TaskId> edges_;

    // Reverse-edge CSR cache: offsets (n+1) into one dependents array,
    // built on first use after a mutation and reused across scheduler
    // runs. Mutable because building it is a logically-const operation
    // (see finalizeDependents() for the threading caveat).
    mutable std::vector<std::uint32_t> dependent_offsets_;
    mutable std::vector<TaskId> dependents_;
    mutable bool dependents_valid_ = false;

    std::int32_t min_priority_ = 0;
    std::int32_t max_priority_ = 0;
};

} // namespace so::sim

#endif // SO_SIM_GRAPH_H
