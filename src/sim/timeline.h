/**
 * @file
 * Busy-interval timelines for simulated resources.
 *
 * The paper's Figs. 4 and 15 are idle/busy breakdowns of the Hopper GPU
 * and Grace CPU over a training iteration; Timeline provides the busy
 * time, idle time, and utilization queries those figures need.
 */
#ifndef SO_SIM_TIMELINE_H
#define SO_SIM_TIMELINE_H

#include <vector>

#include "sim/graph.h"

namespace so::sim {

/** One busy interval on a resource. */
struct Interval
{
    double start = 0.0;
    double end = 0.0;
    TaskId task = kInvalidTask;
};

/**
 * Record of the busy intervals of one resource, in the order they were
 * added. The scheduler adds them in start order, one task at a time, so
 * its timelines never overlap; a timeline filled by hand may. The union
 * queries merge a timeline in start order in place and only sort a copy
 * of one that was filled out of order.
 */
class Timeline
{
  public:
    /** Record a busy interval; intervals may overlap. */
    void add(double start, double end, TaskId task);

    /** Drop all intervals but keep the capacity (recycling support). */
    void
    clear()
    {
        intervals_.clear();
        start_ordered_ = true;
    }

    const std::vector<Interval> &intervals() const { return intervals_; }

    /**
     * Time inside [begin, end) covered by at least one interval (their
     * union, clamped to the window). One merge pass over a timeline in
     * start order; otherwise over a sorted copy.
     */
    double busyTime(double begin, double end) const;

    /** Window length minus busyTime. */
    double idleTime(double begin, double end) const;

    /** busyTime / window length; 0 for an empty window. */
    double utilization(double begin, double end) const;

    bool empty() const { return intervals_.empty(); }

  private:
    std::vector<Interval> intervals_;
    /** Whether intervals_ is in non-decreasing start order. */
    bool start_ordered_ = true;
};

} // namespace so::sim

#endif // SO_SIM_TIMELINE_H
