/**
 * @file
 * Shared helpers for the table/figure reproduction binaries.
 *
 * Every bench builds on the Harness: it parses the shared command line
 * (--jobs N for parallel evaluation, a whole number >= 0, --json [path]
 * for a machine-readable BENCH_<id>.json record, --progress for sweep
 * logging, --profile for schedule profiling, whose level of detail
 * follows the graph size (docs/OBSERVABILITY.md), --trace-dir [DIR] for
 * per-cell chrome-trace/profile/bundle files, --self-trace [PATH] for
 * a host-side engine trace — see docs/SELFTRACE.md; any other --flag,
 * any argument that is not a flag or its value, a value given to
 * --progress or --profile, and a malformed --jobs are usage errors),
 * owns the SweepEngine the bench declares its grid into, and collects
 * the rendered tables so the JSON document carries both the formatted
 * tables and the raw per-cell records. Benches only
 * write: `so-report check` guards a record against a baseline and
 * `so-report html` renders records, trace directories and self-traces
 * as a Schedule Explorer page (docs/DIFF.md, docs/EXPLORER.md).
 * Benches keep working with no arguments at all — that is how the
 * ctest smoke tests and CI run them. A file the bench cannot write in
 * full is fatal.
 */
#ifndef SO_BENCH_BENCH_UTIL_H
#define SO_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "runtime/sweep.h"

namespace so::bench {

/** Print the standard banner naming the experiment being reproduced. */
inline void
banner(const std::string &id, const std::string &description,
       const std::string &paper_expectation)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", id.c_str(), description.c_str());
    std::printf("paper: %s\n", paper_expectation.c_str());
    std::printf("==============================================================\n\n");
}

/** Format a throughput cell: TFLOPS or "OOM". */
inline std::string
tflopsCell(bool feasible, double tflops)
{
    if (!feasible)
        return "OOM";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", tflops);
    return buf;
}

/**
 * Driver shared by all reproduction binaries: banner + command line +
 * sweep engine + table collection + JSON export.
 *
 * Typical shape of a bench:
 *
 *   Harness harness(argc, argv, "Fig. 10", ...);
 *   for (...) harness.add(system, setup, tag);   // declare the grid
 *   harness.run();                               // evaluate (parallel)
 *   Table &t = harness.table("...");             // build + print rows
 *   ...
 *   return harness.finish();                     // JSON when requested
 */
class Harness
{
  public:
    /**
     * Parses argv by the flags above (a command line that breaks them
     * exits so::kUsageError naming the token), prints the banner, and
     * sets up the engine.
     * @p default_jobs applies when --jobs is absent (0 = all cores);
     * most benches default to 1 so smoke runs stay deterministic in
     * load order.
     */
    Harness(int argc, const char *const *argv, std::string id,
            const std::string &description,
            const std::string &paper_expectation,
            std::size_t default_jobs = 1);

    /**
     * Declare one cell; returns its index for result(). When --profile
     * or --trace-dir was given, the setup's capture_profile /
     * capture_trace flags are switched on before the cell is added.
     */
    std::size_t add(const runtime::TrainingSystem &system,
                    runtime::TrainSetup setup, std::string tag = "");

    /** Evaluate everything declared so far. */
    void run() { engine_->run(); }

    /** Result of cell @p index (run() must have covered it). */
    const runtime::IterationResult &result(std::size_t index) const
    {
        return engine_->result(index);
    }

    /** Create a table collected into the JSON document. */
    Table &table(std::string title);

    /** Resolved worker count. */
    std::size_t jobs() const { return engine_->jobs(); }

    /** Whether --profile (or --trace-dir) switched profiling on. */
    bool profiling() const { return profile_; }

    /**
     * Finish the bench: write per-cell trace/profile/bundle files when
     * --trace-dir was given, the host self-trace and its summary when
     * --self-trace was given, and BENCH_<id>.json (job and cache
     * counters, tables, cells, and a `meta` subtree — schema version,
     * git SHA, hostname, argv — that the regression guard skips) when
     * --json was given. A file that cannot be written in full is
     * fatal, naming its path (exit 1).
     */
    int finish();

    /** "Fig. 10" -> "fig10": the id as a filename fragment. */
    static std::string sanitizeId(const std::string &id);

  private:
    /**
     * Write per-cell .trace.json / .profile.json / .bundle.json under
     * trace_dir_.
     */
    void writeTraceFiles() const;

    std::string id_;
    std::string json_path_;     // Empty: no JSON requested.
    std::string trace_dir_;     // Empty: no trace files requested.
    std::string selftrace_path_; // Empty: no host self-trace export.
    bool profile_ = false;
    std::vector<std::string> argv_; // For the record's meta subtree.
    std::unique_ptr<runtime::SweepEngine> engine_;
    std::vector<std::unique_ptr<Table>> tables_;
};

} // namespace so::bench

#endif // SO_BENCH_BENCH_UTIL_H
