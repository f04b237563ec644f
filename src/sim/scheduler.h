/**
 * @file
 * Deterministic list-scheduling discrete-event simulator.
 *
 * Given a TaskGraph, the scheduler computes when each task starts and
 * finishes under the constraints that (a) a task starts only after all
 * its dependencies finish, and (b) a resource runs one task at a time.
 * Ties are broken by task priority, then insertion order, so results
 * are bit-for-bit reproducible. Every dependency is an earlier task, so
 * every task becomes ready and runs.
 *
 * The hot machinery is sized for 10M-task graphs (docs/PERF.md, "Event
 * queue at scale"): completion events live in a binary heap whose size
 * is bounded by the graph's resource count, not its task count (one
 * event per busy resource), ready tasks live in per-resource priority
 * buckets (the graph's priority span is at most kMaxPrioritySpan, so
 * mark-ready and pop are O(1)), and the reverse-edge CSR is cached on
 * the TaskGraph — built once per graph, not once per run.
 */
#ifndef SO_SIM_SCHEDULER_H
#define SO_SIM_SCHEDULER_H

#include <cstdint>
#include <vector>

#include "sim/graph.h"

namespace so::sim {

/** One pending completion: task @p id finishes at @p time. */
struct SimEvent
{
    double time = 0.0;
    TaskId id = kInvalidTask;
};

/** Result of simulating one TaskGraph. */
struct Schedule
{
    /** Per-task start time (seconds). */
    std::vector<double> start;
    /** Per-task finish time (seconds). */
    std::vector<double> finish;
    /**
     * Per-resource task order, indexed by ResourceId: the tasks that
     * occupied the resource (finish > start), in start order. A
     * resource runs one task at a time, so each order's tasks are
     * disjoint in time and their finishes never decrease.
     */
    std::vector<std::vector<TaskId>> order;
    /** Completion time of the last task. */
    double makespan = 0.0;

    /**
     * Time inside [begin, end) that @p resource was busy: its tasks'
     * intervals clamped to the window, with touching intervals merged
     * into one segment before it is summed. 0 for an empty or reversed
     * window.
     */
    double busyTime(ResourceId resource, double begin, double end) const;
};

/**
 * Event-driven scheduler. run() keeps its working state either on the
 * stack (the one-argument overload) or in a caller-provided Workspace
 * that is reused across calls, so a sweep evaluating thousands of
 * graphs performs O(1) scratch allocations per worker thread instead of
 * O(graphs). Schedules are bit-identical either way. A Scheduler object
 * itself is stateless; many threads may run() concurrently as long as
 * each uses its own Workspace (or none).
 */
class Scheduler
{
  public:
    /**
     * Reusable scratch memory for run(). Not thread-safe: one Workspace
     * per worker thread (see docs/PERF.md for the reuse contract). The
     * vectors grow to the largest graph seen and keep their capacity.
     */
    struct Workspace
    {
        /**
         * Ready tasks of one resource, bucketed by rank (priority minus
         * the graph's lowest priority). Each
         * bucket keeps its pending ids ascending in [cursor, end), so
         * pop-min is "advance the cursor of the lowest live bucket" —
         * O(1) — and mark-ready is an append whenever ids arrive in
         * ascending order (the overwhelmingly common case; out-of-order
         * arrivals pay one ordered insert). A bitmask over buckets
         * finds the lowest live priority with a count-trailing-zeros.
         */
        struct ReadySet
        {
            struct Bucket
            {
                std::vector<TaskId> ids;
                std::size_t cursor = 0;
            };
            std::vector<Bucket> buckets;
            /** Bit b set iff buckets[b] has pending ids. */
            std::vector<std::uint64_t> live;
            std::size_t count = 0;

            /** Clear for @p ranks priority ranks, keeping capacity. */
            void reset(std::size_t ranks);
            /** Add @p id at priority rank @p rank. */
            void push(std::size_t rank, TaskId id);
            /** Remove and return the lowest (rank, id). */
            TaskId popMin();
            bool empty() const { return count == 0; }
        };

        std::vector<std::uint32_t> pending_deps;
        /** Per-resource ready sets, indexed by ResourceId. */
        std::vector<ReadySet> ready;
        /** Whether each resource is running a task. */
        std::vector<char> busy;
        /**
         * Pending completion events, a binary min-heap by (time, id):
         * one event per busy resource, so never more than the graph's
         * resource count.
         */
        std::vector<SimEvent> events;
    };

    /** Simulate @p graph from time 0 using stack-local scratch. */
    Schedule run(const TaskGraph &graph) const;

    /** Like run(graph), reusing @p ws for all scratch storage. */
    Schedule run(const TaskGraph &graph, Workspace &ws) const;

    /**
     * Like run(graph, ws), but writes the result into @p out, reusing
     * the capacity of its vectors, per-resource orders included. At
     * million-task sizes a Schedule is tens of MB; callers that keep one
     * alive across runs (the bench harness, steady-state sweep loops)
     * avoid re-faulting those pages every run. The stored values are
     * bit-identical to the returning overloads'.
     */
    void run(const TaskGraph &graph, Workspace &ws, Schedule &out) const;

    /**
     * This thread's lazily created Workspace. The per-worker reuse
     * point for thread-pool simulations (SweepEngine, bench harness):
     * every run() on the same thread shares one scratch arena.
     */
    static Workspace &threadWorkspace();
};

} // namespace so::sim

#endif // SO_SIM_SCHEDULER_H
