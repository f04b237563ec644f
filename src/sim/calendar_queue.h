/**
 * @file
 * Calendar-queue event structure for the discrete-event scheduler.
 *
 * A discrete-event simulation pops its pending-event set in ascending
 * (time, id) order. A binary heap does that in O(log n) per operation
 * with a branchy composite comparator; a calendar queue (Brown 1988)
 * does it in amortized O(1) by hashing events into an array of
 * time-buckets of width `w` covering one "year" [year_start,
 * year_start + n_buckets * w), draining buckets in rotation, and
 * re-sizing the bucket array when occupancy drifts. Events beyond the
 * current year land in a sorted-overflow ladder that re-seeds the
 * calendar whenever a year drains — so far-future events (common when
 * task durations span nanoseconds to seconds) are touched once, not on
 * every rotation.
 *
 * The pop order is *defined* purely by (time, id) — ties sort by id —
 * so internal reorganization (bucket resizing, year re-seeds, overflow
 * spills) can never change the drain sequence: results are bit-for-bit
 * identical to the heap implementation this replaces.
 *
 * Contract: once draining has begun, pushed times must be >= the last
 * popped time (the DES invariant — a completion never predates the
 * event that scheduled it). Before the first pop (the seed phase)
 * events may arrive in any order: they are staged and the calendar is
 * laid out lazily at the first pop, when the full seed population is
 * known. An emptied queue returns to the staging state, so reuse across
 * simulation runs is free. Memory is retained across clear()/drain, per
 * the Scheduler::Workspace reuse model (docs/PERF.md).
 */
#ifndef SO_SIM_CALENDAR_QUEUE_H
#define SO_SIM_CALENDAR_QUEUE_H

#include <cstddef>
#include <vector>

#include "sim/graph.h"

namespace so::sim {

/** One pending completion: task @p id finishes at @p time. */
struct SimEvent
{
    double time = 0.0;
    TaskId id = kInvalidTask;
};

/** Monotone event queue draining in ascending (time, id). */
class CalendarQueue
{
  public:
    /** Remove every event; bucket/overflow capacity is retained. */
    void clear();

    /**
     * Add a completion event. Must not precede the last popped time
     * once draining has begun (asserted in debug builds).
     */
    void push(double time, TaskId id);

    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    /** The earliest pending event (by (time, id)); queue must be non-empty. */
    const SimEvent &peek();

    /** Remove and return the earliest pending event. */
    SimEvent pop();

    /// @name Introspection (tests and diagnostics only)
    /// @{
    /** Current bucket count (0 while staging). */
    std::size_t bucketCount() const { return built_ ? n_buckets_ : 0; }
    /** Events currently parked in the sorted-overflow ladder. */
    std::size_t overflowSize() const { return overflow_.size(); }
    /// @}

  private:
    /** Lay out the calendar from the staged seed population. */
    void build();
    /** Pick bucket count and width for @p n events in [lo, hi]. */
    void layout(double lo, double hi, std::size_t n);
    /** Re-bucket everything with sizing recomputed from occupancy. */
    void rebuild();
    /** Hash one event into its bucket (or the overflow ladder). */
    void place(const SimEvent &ev);
    /** Start a new year at the overflow ladder's earliest event. */
    void advanceYear();
    /** Position cursor_ on the bucket holding the global minimum. */
    void position();
    /** Reset to the staging state (queue must be empty). */
    void reset();

    double yearEnd() const
    {
        return year_start_ + width_ * static_cast<double>(n_buckets_);
    }

    // Buckets hold events of the current year; bucket k covers
    // [year_start + k*w, year_start + (k+1)*w). Contents are unsorted
    // until the cursor arrives, then kept sorted *descending* by
    // (time, id) so the minimum pops from the back.
    std::vector<std::vector<SimEvent>> buckets_;
    /** Far-future events (>= yearEnd()), sorted lazily, drained from the back. */
    std::vector<SimEvent> overflow_;
    /** Seed-phase staging; doubles as rebuild scratch. */
    std::vector<SimEvent> staged_;
    std::size_t n_buckets_ = 0;
    double width_ = 1.0;
    double year_start_ = 0.0;
    /** Bucket currently being drained; buckets before it are empty. */
    std::size_t cursor_ = 0;
    std::size_t count_ = 0;
    bool built_ = false;
    /** Whether buckets_[cursor_] is sorted (pushes into it unsort it). */
    bool cursor_sorted_ = false;
    bool overflow_sorted_ = false;
#ifndef NDEBUG
    double drain_floor_ = 0.0;
    bool draining_ = false;
#endif
};

} // namespace so::sim

#endif // SO_SIM_CALENDAR_QUEUE_H
