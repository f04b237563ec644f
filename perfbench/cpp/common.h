/**
 * @file
 * Shared pieces of the repository benchmark: wall-clock helpers, the
 * exclusive stage ledger of traced runs, the metric report, and the
 * per-cell result digest used by the correctness checks.
 *
 * Every time here is host wall time from std::chrono::steady_clock;
 * nothing reads CPU time, which undercounts work done on pool threads.
 */
#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/system.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double since(Clock::time_point t0);

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Scratch directory for written artifacts (observe-grid). */
    std::string work_dir = ".";
    /** Directory holding the recorded default-seed digests. */
    std::string expected_dir;
    /** Rewrite the recorded digests instead of checking them. */
    bool record = false;
};

/** The seed whose per-cell digests are recorded beside the benchmark. */
inline constexpr std::uint64_t kDefaultSeed = 1;

/** Worker threads of every workload: min(hardware threads, 4). */
std::size_t workerCount();

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupRepeats = 5;

/**
 * Exclusive wall time per stage of a traced run. The benchmark times
 * each call into a library layer from outside; stages never nest, so
 * their seconds add up to the traced wall minus the loop's own
 * overhead.
 */
class Ledger
{
  public:
    struct Stage
    {
        std::int64_t calls = 0;
        double seconds = 0.0;
        std::vector<double> samples;
    };

    /** Record one call of @p stage; keeps its duration when asked. */
    void add(const std::string &stage, double seconds,
             bool keep_sample = false);

    const Stage &stage(const std::string &name) const;
    double total() const;
    const std::map<std::string, Stage> &stages() const { return stages_; }

  private:
    std::map<std::string, Stage> stages_;
};

/** Linear-interpolated percentile @p q in [0, 1] of @p values. */
double percentile(std::vector<double> values, double q);

/** Median of @p values (0 when empty). */
double median(std::vector<double> values);

/** Peak resident set of this process, in MiB (VmHWM). */
double peakRssMiB();

/**
 * Lower the peak-resident mark to the current resident set, so the
 * next peakRssMiB() reads the peak of the work in between. Workloads
 * take the peak per repetition (or session, or window) and report the
 * median: the process-lifetime peak is set by a single allocation
 * event, and glibc's per-thread arenas make that event's size vary
 * run to run by more than any useful bound.
 */
void resetPeakRss();

/**
 * Digest of every simulated output of one cell: feasibility, reason,
 * iteration time (hexfloat), micro-batch, accumulation, checkpointing,
 * utilisations, memory, extras and energy per iteration. Pre-rendered
 * strings (gantt, trace, profile, bundle, notes) are excluded, so the
 * digest pins what was simulated, not how it was rendered.
 */
std::uint64_t resultDigest(const so::runtime::IterationResult &result);

/** Hex text of a digest. */
std::string hexDigest(std::uint64_t digest);

/**
 * Recorded digests for the default seed: one hex digest per line.
 * Returns an empty list when the file does not exist.
 */
std::vector<std::string> readDigests(const std::string &path);
void writeDigests(const std::string &path,
                  const std::vector<std::string> &digests);

/** Everything one run prints. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    /** Input properties, printed beside the metrics. */
    std::vector<std::pair<std::string, std::string>> properties;
    std::vector<Metric> metrics;
    /** Human-readable lines (per-layer breakdown, ratio bases). */
    std::vector<std::string> lines;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;

    void property(const std::string &name, const std::string &value);
    void property(const std::string &name, double value);
    void metric(const std::string &name, double value,
                const std::string &unit);
    void line(const std::string &text);
};

/** Format @p value with printf-style @p fmt. */
std::string format(const char *fmt, double value);

/**
 * Per-layer figures of a traced run. Every traced run emits the full
 * list, with zeros for layers the workload does not reach, so that the
 * metric set is the same on every workload.
 */
struct Layers
{
    Ledger ledger;
    /** Wall of the traced loop. */
    double traced_wall = 0.0;
    /** Wall of the untraced pass over the same operations. */
    double untraced_wall = 0.0;
    /** Worker threads of the untraced pass. */
    std::size_t workers = 1;
    std::int64_t ops = 0;

    double cells = 0.0;
    double candidates = 0.0;
    double screen_only_cells = 0.0;
    double result_json_bytes = 0.0;
    double rendered_bytes = 0.0;
    double html_bytes = 0.0;
    double artifact_bytes = 0.0;
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    /** Capture-on minus capture-off seconds over the same candidates. */
    double observe_extra_s = 0.0;
    double adam_elems = 0.0;
    double adam_fused_elems = 0.0;
};

/** Operations measured over a stretch of one run. */
struct Window
{
    std::vector<double> latencies;
    double wall = 0.0;
    double ops = 0.0;
};

/**
 * Merge every @p per_window consecutive @p units into one window. A
 * shorter trailing group is dropped, unless it is the only group.
 */
std::vector<Window> groupWindows(const std::vector<Window> &units,
                                 std::size_t per_window);

/**
 * Append the end-to-end metrics every workload reports: set-up time,
 * then operations per second and the 50th and 99th percentile of
 * operation latency, each the median over @p windows, then peak
 * resident memory. Medians over windows of about a second keep a
 * stretch of host contention shorter than half the run from moving
 * the run's figures.
 */
void endToEnd(Report &report, double setup_s,
              const std::vector<Window> &windows, double peak_rss_mb);

/** Append the per-layer metrics and the share table to @p report. */
void reportLayers(const Layers &layers, Report &report);

/** Run @p workload (dispatch used by main). */
Report runSweepGrid(const Options &opt);
Report runPlanQueries(const Options &opt);
Report runObserveGrid(const Options &opt);
Report runAdamStep(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
