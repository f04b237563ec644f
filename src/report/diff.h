/**
 * @file
 * Differential schedule profiling: explain *why* one schedule beats
 * another by attributing the makespan delta to label phases and idle
 * causes.
 *
 * The paper's argumentation is comparative — Fig. 4 and Figs. 10/11
 * explain SuperOffload's win over ZeRO-Offload/Infinity by attributing
 * the *difference* in idle time and iteration time to specific schedule
 * phases. The single-run profiler (sim/profiler.h) already pins two
 * invariants this module builds on: the critical path's length equals
 * the makespan, and the critical-path seconds grouped by phase sum to
 * that length. Diffing two profiles phase-by-phase therefore yields
 * signed per-phase contributions that sum to the total makespan delta
 * (up to an explicit `unattributed` residual, kept for inputs that do
 * not satisfy the invariants exactly, e.g. hand-edited JSON).
 *
 * Inputs come in two shapes, both normalized into a ProfileView:
 *   - an in-memory profile (viewFromProfile): the bounded
 *     sim::ProfileTotals that a sim::ScheduleProfile and an
 *     IterationResult's profile summary share, with optional energy
 *     totals (viewFromIteration passes a result's pair),
 *   - a JSON document (viewFromJson): a standalone profile document
 *     (sim::profileToJson), a result document (runtime::toJson), a
 *     planner report (core::toJson), or a sweep/bench record with a
 *     `cells` array plus a cell selector.
 */
#ifndef SO_REPORT_DIFF_H
#define SO_REPORT_DIFF_H

#include <string>
#include <vector>

#include "runtime/system.h"
#include "sim/profiler.h"

namespace so {
class JsonValue;
} // namespace so

namespace so::report {

/** One critical-path phase of a profile (seconds on the path). */
struct PhaseSlice
{
    std::string phase;
    double seconds = 0.0;
};

/** Busy/idle-cause seconds of one resource. */
struct ResourceSlice
{
    std::string resource;
    double busy = 0.0;
    double dependency = 0.0;
    double contention = 0.0;
    double tail = 0.0;
};

/**
 * Profile shape shared by every input format: what diffProfiles()
 * actually consumes. `phases` are the critical-path phase seconds
 * (summing to the makespan for profiler-produced inputs).
 */
struct ProfileView
{
    /** Display label: system name, file name, or cell tag. */
    std::string label;
    double makespan = 0.0;
    std::vector<PhaseSlice> phases;
    std::vector<ResourceSlice> resources;

    /** Whether the input carried joule attribution (docs/ENERGY.md). */
    bool has_energy = false;
    /** Total joules over the schedule. */
    double energy_j = 0.0;
    /**
     * Task joules per phase (PhaseSlice::seconds holds joules here).
     * Sums to the *active* joules; the idle + background remainder of
     * energy_j lands in the diff's energy residual.
     */
    std::vector<PhaseSlice> energy_phases;
};

/**
 * View of an in-memory profile; @p label is carried into the diff.
 * When @p energy is given and valid, the view carries joule
 * attribution into the diff.
 */
ProfileView viewFromProfile(const sim::ProfileTotals &profile,
                            std::string label,
                            const sim::EnergyTotals *energy = nullptr);

/**
 * View of an in-memory iteration result: the profile summary, which
 * must be valid (IterationResult::profile.valid), plus its energy
 * attribution in one call (the planner's --explain input).
 */
ProfileView viewFromIteration(const runtime::IterationResult &result,
                              std::string label);

/**
 * Normalize one parsed JSON document into a view. Recognizes, in this
 * order: a profile document (`makespan_s` + `critical_path`), a
 * planner report (`iteration`), a result document (`feasible` +
 * `profile`), and a sweep/bench record (`cells`, where @p cell selects
 * a cell by index, system name, or tag). Returns false and fills
 * *@p error when the document has no usable profile.
 */
bool viewFromJson(const JsonValue &doc, ProfileView &out,
                  std::string *error, const std::string &cell = "");

/** Per-phase contribution to the makespan delta (after - before). */
struct PhaseDelta
{
    std::string phase;
    double before = 0.0;
    double after = 0.0;
    double delta = 0.0;
    /** Phase absent on the before side. */
    bool appeared = false;
    /** Phase absent on the after side. */
    bool vanished = false;
};

/** Per-resource busy/idle-cause deltas (after - before). */
struct ResourceDelta
{
    std::string resource;
    double busy = 0.0;
    double dependency = 0.0;
    double contention = 0.0;
    double tail = 0.0;
};

/**
 * Phase-matched attribution of the makespan delta between two
 * profiles. Invariant (pinned by tests): the sum of `phases[].delta`
 * plus `unattributed` equals `makespan_delta` exactly; for profiles
 * produced by sim::profileSchedule the residual itself is below
 * 1e-9 * max(makespans, 1).
 */
struct ProfileDiff
{
    std::string before_label;
    std::string after_label;
    double makespan_before = 0.0;
    double makespan_after = 0.0;
    /** makespan_after - makespan_before (negative = after is faster). */
    double makespan_delta = 0.0;

    /** Union of both phase sets, largest |delta| first. */
    std::vector<PhaseDelta> phases;

    /** makespan_delta - sum of phase deltas (exact by construction). */
    double unattributed = 0.0;

    /** Union of both resource sets, in before-then-after order. */
    std::vector<ResourceDelta> resources;

    /** Set when both sides carried joule attribution. */
    bool has_energy = false;
    double energy_before_j = 0.0;
    double energy_after_j = 0.0;
    /** energy_after_j - energy_before_j (negative = after is cheaper). */
    double energy_delta_j = 0.0;
    /** Union of both energy phase sets, largest |delta| first (J). */
    std::vector<PhaseDelta> energy_phases;
    /**
     * energy_delta_j - sum of energy phase deltas, exact by
     * construction. Energy phases attribute the *active* joules, so
     * this residual is precisely the idle + background joule change.
     */
    double energy_unattributed_j = 0.0;
};

/** Diff two views: attribution of `after.makespan - before.makespan`. */
ProfileDiff diffProfiles(const ProfileView &before,
                         const ProfileView &after);

/** The diff as a human-readable multi-line report. */
std::string diffToText(const ProfileDiff &diff);

/** The diff as one standalone JSON document. */
std::string diffToJson(const ProfileDiff &diff);

} // namespace so::report

#endif // SO_REPORT_DIFF_H
