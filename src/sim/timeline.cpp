#include "sim/timeline.h"

#include <algorithm>
#include <span>

#include "common/logging.h"

namespace so::sim {

namespace {

/**
 * Length of the union of the start-ordered @p intervals inside
 * [begin, end): one merge pass that sums the union's segments in
 * ascending order.
 */
double
mergedBusy(std::span<const Interval> intervals, double begin, double end)
{
    double busy = 0.0;
    bool open = false;
    double cur_s = 0.0;
    double cur_e = 0.0;
    for (const Interval &iv : intervals) {
        if (iv.start >= end)
            break; // So does every later interval.
        const double s = std::max(iv.start, begin);
        const double e = std::min(iv.end, end);
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

} // namespace

void
Timeline::add(double start, double end, TaskId task)
{
    SO_ASSERT(end >= start, "interval ends before it starts");
    if (end == start)
        return; // Zero-length tasks do not occupy the resource.
    if (!intervals_.empty() && start < intervals_.back().start)
        start_ordered_ = false;
    intervals_.push_back(Interval{start, end, task});
}

double
Timeline::busyTime(double begin, double end) const
{
    if (end <= begin || intervals_.empty())
        return 0.0;
    if (start_ordered_)
        return mergedBusy(intervals_, begin, end);
    std::vector<Interval> sorted(intervals_);
    std::sort(sorted.begin(), sorted.end(),
              [](const Interval &a, const Interval &b) {
                  return a.start < b.start;
              });
    return mergedBusy(sorted, begin, end);
}

double
Timeline::idleTime(double begin, double end) const
{
    if (end <= begin)
        return 0.0;
    return (end - begin) - busyTime(begin, end);
}

double
Timeline::utilization(double begin, double end) const
{
    if (end <= begin)
        return 0.0;
    return busyTime(begin, end) / (end - begin);
}

} // namespace so::sim
