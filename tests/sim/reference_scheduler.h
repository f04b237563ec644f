/**
 * @file
 * Naive O(V·E) reference scheduler — tests only.
 *
 * A deliberately simple re-implementation of the list-scheduling
 * semantics in src/sim/scheduler.h: no event queue, no ready heaps, no
 * CSR — every decision is a fresh linear scan over tasks and their
 * dependencies. It is the executable specification the optimized
 * discrete-event path is differential-tested against (the ROADMAP item
 * 5 oracle): on any graph, both must produce bit-identical start/finish
 * times, per-resource task orders, and makespan.
 *
 * Semantics (must match src/sim/scheduler.cpp exactly):
 *  - time advances to the earliest unfinished completion;
 *  - all completions at that instant retire before anything starts;
 *  - whenever a resource is idle, it starts its lowest (priority, id)
 *    ready task;
 *  - a resource stays busy until its task's completion retires: a
 *    zero-duration task started at t blocks its resource until the
 *    next retire step at t, just like a completion event that hasn't
 *    drained from the event queue yet.
 *
 * Keep this file free of scheduler internals: it may only use the
 * public TaskGraph/Schedule surface.
 */
#ifndef SO_TESTS_SIM_REFERENCE_SCHEDULER_H
#define SO_TESTS_SIM_REFERENCE_SCHEDULER_H

#include "sim/graph.h"
#include "sim/scheduler.h"

namespace so::sim::testing {

/** Schedule @p graph with the naive reference algorithm. */
Schedule referenceSchedule(const TaskGraph &graph);

} // namespace so::sim::testing

#endif // SO_TESTS_SIM_REFERENCE_SCHEDULER_H
