/**
 * @file
 * Host-side self-tracing: see the engine, not just the schedules.
 *
 * Everything else in this library observes *simulated* time — traces,
 * profiles, and energy numbers of the modeled workload. so::trace
 * observes the engine itself: where SweepEngine wall-clock actually
 * goes (fingerprinting vs cache probes vs simulation vs profiling vs
 * JSON serialization), how evenly ThreadPool workers are loaded, and
 * what a long-running process is doing right now.
 *
 * Design (docs/SELFTRACE.md):
 *  - Always compiled, near-zero cost when disabled: recording sites
 *    construct a Span, whose constructor is one relaxed atomic load
 *    and a branch when tracing is off. No clocks, no locks, no
 *    allocation on the disabled path.
 *  - Per-thread bounded ring buffers: each thread records into its own
 *    fixed-capacity ring (newest spans overwrite the oldest), so
 *    recording never contends across threads and memory is strictly
 *    bounded. Overwritten spans are counted in an explicit per-thread
 *    drop counter — never silently lost. Exact per-category totals and
 *    per-worker busy accumulators are updated on every record, so the
 *    self-profile summary stays exact even after the ring wraps.
 *  - Stable thread ids: currentTid() hands out small sequential ids in
 *    first-use order (the main thread is 0 when it touches the tracer
 *    first). The same numbering appears in log lines (`tid` field),
 *    the host Chrome trace, and the heartbeat, so all three correlate.
 *  - Two export paths: toChromeTrace() renders the collected spans as
 *    a chrome://tracing document under a host pid distinct from the
 *    simulated-schedule pids (so both open merged in one viewer), and
 *    selfProfileJson() summarizes wall time by category, per-worker
 *    busy fractions, queue-wait percentiles, and the cache hit/miss
 *    latency split (schema-stamped like every other JSON artifact).
 *    This is the one store of host timing: nothing else in the
 *    library times the engine.
 *  - Live heartbeat: SO_HEARTBEAT=<path>[:interval_ms] spawns a
 *    sampler thread that atomically (write-temp-then-rename) rewrites
 *    a small status JSON — in-flight spans, sweep progress/ETA, RSS —
 *    so an external watcher can monitor a running sweep without
 *    attaching a debugger.
 *
 * Activation: initFromEnv() reads SO_TRACE ("1"/"true"/"yes"/"on"
 * enables; any other non-empty value enables *and* registers an
 * at-exit export of the Chrome trace to that path, with the summary
 * next to it) and SO_HEARTBEAT. Harness --self-trace is the
 * command-line equivalent (bench/bench_util.h).
 */
#ifndef SO_COMMON_TRACE_H
#define SO_COMMON_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace so::trace {

/** Subsystem a span belongs to (the Chrome-trace "cat" field). */
enum class Category : std::uint8_t
{
    Pool,      ///< ThreadPool job execution (queue wait as an arg).
    Sweep,     ///< SweepEngine phases: enumerate/fingerprint/cache/select.
    Sim,       ///< Discrete-event Scheduler::run.
    Profile,   ///< Schedule profiling and energy attribution passes.
    Serialize, ///< JSON rendering: results, traces, bundles, records.
    Render,    ///< Explorer HTML assembly.
    Report,    ///< so-report subcommands.
    Bench,     ///< Bench harness phases.
    Other,
};

/** Number of distinct Category values (accumulator array size). */
inline constexpr std::size_t kCategoryCount = 9;

/** Stable lowercase name of @p cat ("pool", "sweep", ...). */
const char *categoryName(Category cat);

namespace detail {
/** The process-wide enabled flag; read via enabled() only. */
extern std::atomic<bool> g_enabled;
} // namespace detail

/** Whether spans are currently being recorded (relaxed load). */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Switch recording on or off (spans already recorded are kept). */
void setEnabled(bool on);

/**
 * Per-thread ring capacity (spans) for buffers created *after* this
 * call; existing buffers keep their size. Default 65536. Clamped to
 * at least 16.
 */
void setRingCapacity(std::size_t spans);

/**
 * Small sequential id of the calling thread, assigned on first use
 * (also by log lines and heartbeats, so the numbering is shared).
 */
std::uint32_t currentTid();

/** One completed span. Names are static strings (never freed). */
struct SpanRecord
{
    Category category = Category::Other;
    const char *name = "";
    double t0 = 0.0; ///< Seconds since the process trace epoch.
    double t1 = 0.0;
    std::uint32_t tid = 0;
    /** Up to two numeric args (key is a static string; null = unset). */
    const char *arg_key[2] = {nullptr, nullptr};
    double arg_val[2] = {0.0, 0.0};
};

/**
 * RAII span: records [construction, destruction) into the calling
 * thread's ring when tracing was enabled at construction. When
 * disabled, construction is a relaxed load + branch and nothing else.
 */
class Span
{
  public:
    Span(Category category, const char *name);
    ~Span() { end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach a numeric arg (at most two; extras are dropped). */
    void arg(const char *key, double value);

    /** Record now instead of at destruction (idempotent). */
    void end();

  private:
    SpanRecord rec_;
    bool armed_ = false;
};

/** A span still open at sampling time (heartbeat introspection). */
struct InFlightSpan
{
    Category category = Category::Other;
    const char *name = "";
    double t0 = 0.0;
    std::uint32_t tid = 0;
};

/** Merged snapshot of every thread's recorded spans. */
struct CollectedTrace
{
    /** All retained spans, sorted by (t0, tid) — deterministic. */
    std::vector<SpanRecord> spans;
    /** Spans overwritten by ring wrap, per tid (ascending tid). */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> dropped_by_tid;
    /** Sum over dropped_by_tid. */
    std::uint64_t dropped = 0;
    /**
     * Exact per-category (count, total seconds), immune to ring wrap:
     * indexed by static_cast<size_t>(Category).
     */
    std::uint64_t category_count[kCategoryCount] = {};
    double category_s[kCategoryCount] = {};

    /** Exact ThreadPool job load of one worker thread. */
    struct WorkerBusy
    {
        std::uint32_t tid = 0;
        std::uint64_t jobs = 0;
        double busy_s = 0.0;
    };
    /** Per-tid job accumulators, ascending tid (workers only). */
    std::vector<WorkerBusy> job_busy_by_tid;
};

/** Snapshot all thread buffers (does not clear them). */
CollectedTrace collect();

/** Spans currently open across all threads (racy but safe). */
std::vector<InFlightSpan> inFlightSpans();

/** Drop every recorded span, drop counter, and accumulator (tests). */
void clearAll();

/**
 * Chrome-trace pid of the host engine process. Simulated-schedule
 * traces use the resource index (0..N) as pid; this constant keeps the
 * host rows distinct so both documents open merged in one viewer.
 */
inline constexpr int kHostTracePid = 9999;

/**
 * Render @p trace as a chrome://tracing JSON document: one complete
 * ("X") event per span under pid kHostTracePid, thread_name metadata
 * per tid, args carried through, and a "dropped_spans" counter per tid
 * that overflowed.
 */
std::string toChromeTrace(const CollectedTrace &trace);

/**
 * Quantile @p q in [0, 1] of @p values, linearly interpolated between
 * order statistics, exact over every value given; 0 when @p values is
 * empty. The one rule behind every queue-wait p50/p95 (the self-profile
 * and `so-report selftrace` over a Chrome trace).
 */
double quantile(std::vector<double> values, double q);

/**
 * Self-profile summary JSON (schema-stamped): wall seconds by
 * category, per-worker busy fraction, queue-wait mean and percentiles
 * (quantile() over the retained pool spans), and the cache-probe
 * hit/miss latency split. @p wall_s overrides the wall window (<= 0:
 * span extent).
 */
std::string selfProfileJson(const CollectedTrace &trace,
                            double wall_s = 0.0);

// ------------------------------------------------------------------
// Sweep progress (feeds --progress ETA lines and the heartbeat).

/** Point-in-time view of the running sweep batch. */
struct ProgressSnapshot
{
    /** Simulations this batch must run (cache hits excluded). */
    std::uint64_t total_units = 0;
    std::uint64_t done_units = 0;
    /** Cells served from the fingerprint cache this batch. */
    std::uint64_t cached_cells = 0;
    /**
     * Seconds since the batch began, or from its begin to its end once
     * progressEnd() ran (0 when no batch started).
     */
    double elapsed_s = 0.0;
    /** Completed simulations per second (0 until one completes). */
    double rate_per_s = 0.0;
    /**
     * Estimated seconds to completion, or a negative value when not
     * yet estimable (too few completions / too little elapsed time).
     */
    double eta_s = -1.0;
    bool active = false;
};

/** Begin a sweep batch of @p total_units simulations. */
void progressBegin(std::uint64_t total_units, std::uint64_t cached_cells);

/** Mark one simulation complete (thread-safe). */
void progressTick();

/**
 * End the active batch. Progress keeps reporting its final state:
 * elapsed time (and so the rate) stops at this instant until the next
 * progressBegin().
 */
void progressEnd();

/** Current progress; ETA clamped out until it is meaningful. */
ProgressSnapshot progressSnapshot();

/**
 * ETA in seconds from the completed-unit rate, or a negative value
 * when not yet estimable. Pure — exposed so tests pin the clamping
 * rule: needs done >= 3, elapsed >= 0.5 s, and done <= total.
 */
double etaSeconds(std::uint64_t done, std::uint64_t total,
                  double elapsed_s);

// ------------------------------------------------------------------
// Heartbeat: live status JSON for external watchers.

/**
 * Status document written by the heartbeat (also directly callable —
 * tests pin the schema without spawning the sampler):
 * {schema_version, kind:"heartbeat", pid, uptime_s, rss_bytes,
 *  trace:{enabled, spans, dropped}, progress:{...}, in_flight:[...]}.
 */
std::string heartbeatJson();

/**
 * Start the sampler thread: every @p interval_ms it writes
 * heartbeatJson() to @p path via write-temp-then-rename, so readers
 * always see a complete document. Restarting replaces the previous
 * sampler. Stops automatically at process exit (after one final
 * write).
 */
void startHeartbeat(const std::string &path, int interval_ms = 1000);

/** Stop the sampler (writes one final heartbeat first). No-op when
 *  none is running. */
void stopHeartbeat();

/** Resident set size in bytes (/proc/self/statm; 0 if unavailable). */
double rssBytes();

/**
 * Apply SO_TRACE and SO_HEARTBEAT (idempotent; cheap when neither is
 * set). SO_TRACE: truthy ("1"/"true"/"yes"/"on", case-insensitive)
 * enables recording; any other non-empty value enables recording and
 * registers an at-exit Chrome-trace export to that path (summary
 * written next to it as <path minus .json>.selfprofile.json).
 * SO_HEARTBEAT=<path>[:interval_ms] starts the sampler (default
 * 1000 ms, clamped to >= 20).
 */
void initFromEnv();

/**
 * Register an at-exit export of the collected spans: Chrome trace to
 * @p path, self-profile summary next to it. Idempotent per path.
 */
void exportOnExit(const std::string &path);

/**
 * Write Chrome trace + summary for @p path now (the at-exit body).
 * @return whether both files were written in full; a failure is also
 * logged as a warning naming the file.
 */
bool writeExport(const std::string &path);

} // namespace so::trace

#endif // SO_COMMON_TRACE_H
