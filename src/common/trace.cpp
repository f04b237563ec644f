#include "common/trace.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "common/file.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/schema.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace so::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace {

using clock_type = std::chrono::steady_clock;

/** Process trace epoch: all span times are seconds since this point. */
clock_type::time_point
epoch()
{
    static const clock_type::time_point start = clock_type::now();
    return start;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(clock_type::now() - epoch())
        .count();
}

std::atomic<std::size_t> g_ring_capacity{65536};

/** Maximum simultaneously open spans tracked per thread. */
constexpr std::size_t kMaxOpen = 16;

/**
 * One thread's recording state. Created on the thread's first span (or
 * currentTid() call) and intentionally never freed: pool workers may be
 * gone by the time the main thread exports, and their spans must
 * survive them.
 */
struct ThreadBuffer
{
    explicit ThreadBuffer(std::uint32_t id, std::size_t capacity)
        : tid(id), ring(capacity)
    {
    }

    const std::uint32_t tid;

    mutable std::mutex mutex;
    std::vector<SpanRecord> ring; ///< Fixed capacity; wraps.
    std::uint64_t total = 0;      ///< Spans ever recorded here.

    /** Exact accumulators (see CollectedTrace): survive ring wrap. */
    std::uint64_t cat_count[kCategoryCount] = {};
    double cat_s[kCategoryCount] = {};
    std::uint64_t jobs = 0;
    double job_busy_s = 0.0;

    /** Currently open spans (LIFO by RAII nesting). */
    InFlightSpan open[kMaxOpen];
    std::size_t depth = 0;

    std::uint64_t dropped() const
    {
        return total > ring.size() ? total - ring.size() : 0;
    }

    void
    record(const SpanRecord &rec)
    {
        std::lock_guard<std::mutex> lock(mutex);
        ring[total % ring.size()] = rec;
        ++total;
        const auto c = static_cast<std::size_t>(rec.category);
        ++cat_count[c];
        cat_s[c] += rec.t1 - rec.t0;
        if (rec.category == Category::Pool &&
            std::strcmp(rec.name, "job") == 0) {
            ++jobs;
            job_busy_s += rec.t1 - rec.t0;
        }
    }
};

/**
 * All thread buffers ever created. Leaked on purpose (never destroyed)
 * so collect()/heartbeat stay safe during late static destruction.
 */
struct Registry
{
    std::mutex mutex;
    std::vector<ThreadBuffer *> buffers;
    std::uint32_t next_tid = 0;
};

Registry &
registry()
{
    static Registry *r = new Registry;
    return *r;
}

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buf = [] {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        auto *b = new ThreadBuffer(
            reg.next_tid++,
            std::max<std::size_t>(
                16, g_ring_capacity.load(std::memory_order_relaxed)));
        reg.buffers.push_back(b);
        return b;
    }();
    return *buf;
}

constexpr const char *kCategoryNames[kCategoryCount] = {
    "pool",      "sweep",  "sim",   "profile", "serialize",
    "render",    "report", "bench", "other"};

int
processId()
{
#if defined(__unix__) || defined(__APPLE__)
    return static_cast<int>(::getpid());
#else
    return 0;
#endif
}

/** Write @p doc to @p path via temp + rename; false on I/O failure. */
bool
writeAtomically(const std::string &path, const std::string &doc)
{
    const std::string tmp =
        path + ".tmp." + std::to_string(processId());
    if (!writeFile(tmp, {doc, "\n"}) ||
        std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

// ---------------------------------------------------------- progress

struct ProgressState
{
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> cached{0};
    /** Batch start, nanoseconds since epoch(); <0 = no batch yet. */
    std::atomic<std::int64_t> start_ns{-1};
    /** Batch end, set by progressEnd(); <0 = batch still running. */
    std::atomic<std::int64_t> end_ns{-1};
    std::atomic<bool> active{false};
};

ProgressState g_progress;

// --------------------------------------------------------- heartbeat

struct HeartbeatRunner
{
    std::mutex mutex;
    std::condition_variable cv;
    std::thread worker;
    std::string path;
    int interval_ms = 1000;
    bool stop = false;

    ~HeartbeatRunner() { stopAndJoin(); }

    void
    start(const std::string &p, int ms)
    {
        stopAndJoin();
        {
            std::lock_guard<std::mutex> lock(mutex);
            path = p;
            interval_ms = std::max(20, ms);
            stop = false;
        }
        worker = std::thread([this] { loop(); });
    }

    void
    stopAndJoin()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!worker.joinable())
                return;
            stop = true;
        }
        cv.notify_all();
        worker.join();
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            const std::string p = path;
            lock.unlock();
            // Sampling outside the lock: heartbeatJson() snapshots
            // every trace buffer.
            if (!writeAtomically(p, heartbeatJson()))
                warn("heartbeat: cannot write ", p);
            lock.lock();
            if (stop)
                return; // Final write above already reflects the end.
            cv.wait_for(lock,
                        std::chrono::milliseconds(interval_ms),
                        [this] { return stop; });
            if (stop) {
                // One last write so watchers see the final state.
                const std::string fin = path;
                lock.unlock();
                writeAtomically(fin, heartbeatJson());
                lock.lock();
                return;
            }
        }
    }
};

HeartbeatRunner &
heartbeatRunner()
{
    static HeartbeatRunner runner;
    return runner;
}

// ------------------------------------------------------------ export

std::mutex g_export_mutex;
std::string g_export_path;

void
exportAtExit()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(g_export_mutex);
        path = g_export_path;
    }
    if (!path.empty())
        writeExport(path);
}

} // namespace

const char *
categoryName(Category cat)
{
    const auto index = static_cast<std::size_t>(cat);
    return index < kCategoryCount ? kCategoryNames[index] : "other";
}

void
setEnabled(bool on)
{
    // Pin the epoch before the first span so times start near zero.
    epoch();
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

void
setRingCapacity(std::size_t spans)
{
    g_ring_capacity.store(std::max<std::size_t>(16, spans),
                          std::memory_order_relaxed);
}

std::uint32_t
currentTid()
{
    return threadBuffer().tid;
}

Span::Span(Category category, const char *name)
{
    if (!enabled())
        return;
    armed_ = true;
    rec_.category = category;
    rec_.name = name;
    rec_.t0 = nowSeconds();
    ThreadBuffer &buf = threadBuffer();
    rec_.tid = buf.tid;
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.depth < kMaxOpen)
        buf.open[buf.depth] = {category, name, rec_.t0, buf.tid};
    ++buf.depth;
}

void
Span::arg(const char *key, double value)
{
    if (!armed_)
        return;
    for (auto i = 0; i < 2; ++i) {
        if (rec_.arg_key[i] == nullptr) {
            rec_.arg_key[i] = key;
            rec_.arg_val[i] = value;
            return;
        }
    }
}

void
Span::end()
{
    if (!armed_)
        return;
    armed_ = false;
    rec_.t1 = nowSeconds();
    ThreadBuffer &buf = threadBuffer();
    {
        std::lock_guard<std::mutex> lock(buf.mutex);
        if (buf.depth > 0)
            --buf.depth;
    }
    buf.record(rec_);
}

CollectedTrace
collect()
{
    CollectedTrace out;
    std::vector<ThreadBuffer *> buffers;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        buffers = reg.buffers;
    }
    // Registered in tid order already, but sort defensively: the
    // export surfaces promise ascending tid.
    std::sort(buffers.begin(), buffers.end(),
              [](const ThreadBuffer *a, const ThreadBuffer *b) {
                  return a->tid < b->tid;
              });
    for (ThreadBuffer *buf : buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        const std::size_t cap = buf->ring.size();
        const std::size_t kept =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                buf->total, static_cast<std::uint64_t>(cap)));
        const std::size_t first =
            buf->total > cap ? buf->total % cap : 0;
        for (std::size_t i = 0; i < kept; ++i)
            out.spans.push_back(buf->ring[(first + i) % cap]);
        if (buf->dropped() > 0)
            out.dropped_by_tid.emplace_back(buf->tid, buf->dropped());
        out.dropped += buf->dropped();
        for (std::size_t c = 0; c < kCategoryCount; ++c) {
            out.category_count[c] += buf->cat_count[c];
            out.category_s[c] += buf->cat_s[c];
        }
        if (buf->jobs > 0)
            out.job_busy_by_tid.push_back(
                {buf->tid, buf->jobs, buf->job_busy_s});
    }
    // Deterministic merge order regardless of which thread ran what
    // when: ascending (t0, tid), name as a final stable tiebreak.
    std::stable_sort(out.spans.begin(), out.spans.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         if (a.t0 != b.t0)
                             return a.t0 < b.t0;
                         if (a.tid != b.tid)
                             return a.tid < b.tid;
                         return std::strcmp(a.name, b.name) < 0;
                     });
    return out;
}

std::vector<InFlightSpan>
inFlightSpans()
{
    std::vector<InFlightSpan> out;
    std::vector<ThreadBuffer *> buffers;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        buffers = reg.buffers;
    }
    for (ThreadBuffer *buf : buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        const std::size_t depth = std::min(buf->depth, kMaxOpen);
        for (std::size_t i = 0; i < depth; ++i)
            out.push_back(buf->open[i]);
    }
    std::sort(out.begin(), out.end(),
              [](const InFlightSpan &a, const InFlightSpan &b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.t0 < b.t0;
              });
    return out;
}

void
clearAll()
{
    std::vector<ThreadBuffer *> buffers;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        buffers = reg.buffers;
    }
    for (ThreadBuffer *buf : buffers) {
        std::lock_guard<std::mutex> lock(buf->mutex);
        buf->total = 0;
        buf->jobs = 0;
        buf->job_busy_s = 0.0;
        std::fill(std::begin(buf->cat_count), std::end(buf->cat_count),
                  0);
        std::fill(std::begin(buf->cat_s), std::end(buf->cat_s), 0.0);
    }
}

std::string
toChromeTrace(const CollectedTrace &trace)
{
    JsonWriter json;
    json.beginObject();
    json.key("traceEvents").beginArray();
    // Process metadata: one host pid, distinct from the simulated
    // schedule's resource pids, so the two traces open merged.
    json.beginObject();
    json.field("name", "process_name");
    json.field("ph", "M");
    json.field("pid", static_cast<std::int64_t>(kHostTracePid));
    json.key("args").beginObject();
    json.field("name", "so engine (host)");
    json.endObject();
    json.endObject();

    std::vector<std::uint32_t> tids;
    for (const SpanRecord &span : trace.spans)
        tids.push_back(span.tid);
    for (const auto &[tid, dropped] : trace.dropped_by_tid) {
        (void)dropped;
        tids.push_back(tid);
    }
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (std::uint32_t tid : tids) {
        json.beginObject();
        json.field("name", "thread_name");
        json.field("ph", "M");
        json.field("pid", static_cast<std::int64_t>(kHostTracePid));
        json.field("tid", tid);
        json.key("args").beginObject();
        std::string tname = "t";
        tname += std::to_string(tid);
        json.field("name", tid == 0 ? std::string("main") : tname);
        json.endObject();
        json.endObject();
    }

    for (const SpanRecord &span : trace.spans) {
        json.beginObject();
        json.field("name", span.name);
        json.field("cat", categoryName(span.category));
        json.field("ph", "X");
        json.field("pid", static_cast<std::int64_t>(kHostTracePid));
        json.field("tid", span.tid);
        json.field("ts", span.t0 * 1e6);
        json.field("dur", (span.t1 - span.t0) * 1e6);
        if (span.arg_key[0] != nullptr) {
            json.key("args").beginObject();
            for (auto i = 0; i < 2; ++i)
                if (span.arg_key[i] != nullptr)
                    json.field(span.arg_key[i], span.arg_val[i]);
            json.endObject();
        }
        json.endObject();
    }

    // Ring overflow is visible in the viewer, not just the summary.
    for (const auto &[tid, dropped] : trace.dropped_by_tid) {
        json.beginObject();
        json.field("name", "dropped_spans");
        json.field("ph", "C");
        json.field("pid", static_cast<std::int64_t>(kHostTracePid));
        json.field("tid", tid);
        json.field("ts", 0.0);
        json.key("args").beginObject();
        json.field("dropped", static_cast<std::uint64_t>(dropped));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const double pos = std::min(1.0, std::max(0.0, q)) *
                       static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const auto nth = values.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(values.begin(), nth, values.end());
    if (lo + 1 == values.size())
        return *nth;
    // Everything after nth is >= *nth, so the next order statistic is
    // the least of the rest.
    const double next = *std::min_element(nth + 1, values.end());
    return *nth + (pos - static_cast<double>(lo)) * (next - *nth);
}

std::string
selfProfileJson(const CollectedTrace &trace, double wall_s)
{
    double t_min = 0.0, t_max = 0.0;
    if (!trace.spans.empty()) {
        t_min = trace.spans.front().t0;
        t_max = trace.spans.front().t1;
        for (const SpanRecord &span : trace.spans) {
            t_min = std::min(t_min, span.t0);
            t_max = std::max(t_max, span.t1);
        }
    }
    const double wall =
        wall_s > 0.0 ? wall_s : std::max(0.0, t_max - t_min);

    // Queue-wait and cache-probe splits come off the retained spans.
    std::vector<double> waits;
    double wait_sum = 0.0;
    std::uint64_t hits = 0, misses = 0;
    double hit_s = 0.0, miss_s = 0.0;
    for (const SpanRecord &span : trace.spans) {
        if (span.category == Category::Pool &&
            std::strcmp(span.name, "job") == 0) {
            for (auto i = 0; i < 2; ++i)
                if (span.arg_key[i] != nullptr &&
                    std::strcmp(span.arg_key[i], "queue_wait_s") == 0) {
                    waits.push_back(span.arg_val[i]);
                    wait_sum += span.arg_val[i];
                }
        } else if (span.category == Category::Sweep &&
                   std::strcmp(span.name, "cache-probe") == 0) {
            bool hit = false;
            for (auto i = 0; i < 2; ++i)
                if (span.arg_key[i] != nullptr &&
                    std::strcmp(span.arg_key[i], "hit") == 0)
                    hit = span.arg_val[i] != 0.0;
            (hit ? hits : misses) += 1;
            (hit ? hit_s : miss_s) += span.t1 - span.t0;
        }
    }

    JsonWriter json;
    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("kind", "self_profile");
    json.field("pid", static_cast<std::int64_t>(processId()));
    json.field("wall_s", wall);
    json.field("spans",
               static_cast<std::uint64_t>(trace.spans.size()));
    json.field("dropped", trace.dropped);

    json.key("categories").beginObject();
    for (std::size_t c = 0; c < kCategoryCount; ++c) {
        if (trace.category_count[c] == 0)
            continue;
        json.key(kCategoryNames[c]).beginObject();
        json.field("count", trace.category_count[c]);
        json.field("total_s", trace.category_s[c]);
        json.endObject();
    }
    json.endObject();

    json.key("workers").beginArray();
    for (const CollectedTrace::WorkerBusy &w : trace.job_busy_by_tid) {
        json.beginObject();
        json.field("tid", w.tid);
        json.field("jobs", w.jobs);
        json.field("busy_s", w.busy_s);
        json.field("busy_frac", wall > 0.0 ? w.busy_s / wall : 0.0);
        json.endObject();
    }
    json.endArray();

    json.key("queue_wait").beginObject();
    json.field("count", static_cast<std::uint64_t>(waits.size()));
    json.field("mean_s",
               waits.empty()
                   ? 0.0
                   : wait_sum / static_cast<double>(waits.size()));
    json.field("p50_s", quantile(waits, 0.50));
    json.field("p95_s", quantile(std::move(waits), 0.95));
    json.endObject();

    json.key("cache").beginObject();
    json.field("hits", hits);
    json.field("misses", misses);
    json.field("hit_mean_s",
               hits > 0 ? hit_s / static_cast<double>(hits) : 0.0);
    json.field("miss_mean_s",
               misses > 0 ? miss_s / static_cast<double>(misses) : 0.0);
    json.endObject();
    json.endObject();
    return json.str();
}

void
progressBegin(std::uint64_t total_units, std::uint64_t cached_cells)
{
    g_progress.total.store(total_units, std::memory_order_relaxed);
    g_progress.done.store(0, std::memory_order_relaxed);
    g_progress.cached.store(cached_cells, std::memory_order_relaxed);
    g_progress.start_ns.store(
        static_cast<std::int64_t>(nowSeconds() * 1e9),
        std::memory_order_relaxed);
    g_progress.end_ns.store(-1);
    g_progress.active.store(true, std::memory_order_release);
}

void
progressTick()
{
    g_progress.done.fetch_add(1, std::memory_order_relaxed);
}

void
progressEnd()
{
    g_progress.end_ns.store(
        static_cast<std::int64_t>(nowSeconds() * 1e9));
    g_progress.active.store(false, std::memory_order_release);
}

double
etaSeconds(std::uint64_t done, std::uint64_t total, double elapsed_s)
{
    // Clamp out the noisy start: a rate from one or two completions
    // (or a few milliseconds) extrapolates garbage.
    if (done < 3 || elapsed_s < 0.5 || total < done)
        return -1.0;
    const double rate = static_cast<double>(done) / elapsed_s;
    if (rate <= 0.0)
        return -1.0;
    return static_cast<double>(total - done) / rate;
}

ProgressSnapshot
progressSnapshot()
{
    ProgressSnapshot out;
    out.total_units = g_progress.total.load(std::memory_order_relaxed);
    out.done_units = g_progress.done.load(std::memory_order_relaxed);
    out.cached_cells =
        g_progress.cached.load(std::memory_order_relaxed);
    out.active = g_progress.active.load(std::memory_order_acquire);
    const std::int64_t start_ns =
        g_progress.start_ns.load(std::memory_order_relaxed);
    const std::int64_t end_ns = g_progress.end_ns.load();
    if (start_ns >= 0) {
        // An ended batch is measured up to its end, so the snapshot
        // holds the batch's final rate instead of decaying.
        const double until = end_ns >= 0
                                 ? static_cast<double>(end_ns) / 1e9
                                 : nowSeconds();
        out.elapsed_s =
            std::max(0.0, until - static_cast<double>(start_ns) / 1e9);
        if (out.elapsed_s > 0.0 && out.done_units > 0)
            out.rate_per_s = static_cast<double>(out.done_units) /
                             out.elapsed_s;
        out.eta_s = etaSeconds(out.done_units, out.total_units,
                               out.elapsed_s);
    }
    return out;
}

std::string
heartbeatJson()
{
    const CollectedTrace trace = collect();
    const ProgressSnapshot progress = progressSnapshot();
    JsonWriter json;
    json.beginObject();
    json.field("schema_version", kSchemaVersion);
    json.field("kind", "heartbeat");
    json.field("pid", static_cast<std::int64_t>(processId()));
    json.field("uptime_s", nowSeconds());
    json.field("rss_bytes", rssBytes());

    json.key("trace").beginObject();
    json.field("enabled", enabled());
    json.field("spans",
               static_cast<std::uint64_t>(trace.spans.size()));
    json.field("dropped", trace.dropped);
    json.endObject();

    json.key("progress").beginObject();
    json.field("active", progress.active);
    json.field("total_units", progress.total_units);
    json.field("done_units", progress.done_units);
    json.field("cached_cells", progress.cached_cells);
    json.field("elapsed_s", progress.elapsed_s);
    json.field("rate_per_s", progress.rate_per_s);
    if (progress.eta_s >= 0.0)
        json.field("eta_s", progress.eta_s);
    else
        json.key("eta_s").null();
    json.endObject();

    const double now = nowSeconds();
    json.key("in_flight").beginArray();
    for (const InFlightSpan &span : inFlightSpans()) {
        json.beginObject();
        json.field("tid", span.tid);
        json.field("category", categoryName(span.category));
        json.field("name", span.name);
        json.field("elapsed_s", std::max(0.0, now - span.t0));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.str();
}

void
startHeartbeat(const std::string &path, int interval_ms)
{
    heartbeatRunner().start(path, interval_ms);
}

void
stopHeartbeat()
{
    heartbeatRunner().stopAndJoin();
}

double
rssBytes()
{
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    long pages_total = 0, pages_resident = 0;
    const int got =
        std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
    std::fclose(f);
    if (got != 2)
        return 0.0;
    return static_cast<double>(pages_resident) *
           static_cast<double>(::sysconf(_SC_PAGESIZE));
#else
    return 0.0;
#endif
}

bool
writeExport(const std::string &path)
{
    const CollectedTrace trace = collect();
    if (!writeAtomically(path, toChromeTrace(trace))) {
        warn("self-trace: cannot write ", path);
        return false;
    }
    std::string summary_path = path;
    const std::string suffix = ".json";
    if (summary_path.size() >= suffix.size() &&
        summary_path.compare(summary_path.size() - suffix.size(),
                             suffix.size(), suffix) == 0)
        summary_path.resize(summary_path.size() - suffix.size());
    summary_path += ".selfprofile.json";
    if (!writeAtomically(summary_path, selfProfileJson(trace))) {
        warn("self-trace: cannot write ", summary_path);
        return false;
    }
    return true;
}

void
exportOnExit(const std::string &path)
{
    static std::once_flag once;
    {
        std::lock_guard<std::mutex> lock(g_export_mutex);
        g_export_path = path;
    }
    std::call_once(once, [] { std::atexit(exportAtExit); });
}

void
initFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        if (const char *text = std::getenv("SO_TRACE");
            text != nullptr && *text != '\0') {
            std::string lowered;
            for (const char *c = text; *c; ++c)
                lowered += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(*c)));
            const bool truthy = lowered == "1" || lowered == "true" ||
                                lowered == "yes" || lowered == "on";
            const bool falsy = lowered == "0" || lowered == "false" ||
                               lowered == "no" || lowered == "off";
            if (!falsy) {
                setEnabled(true);
                // Any other value names an export target.
                if (!truthy)
                    exportOnExit(text);
            }
        }
        if (const char *text = std::getenv("SO_HEARTBEAT");
            text != nullptr && *text != '\0') {
            std::string spec = text;
            int interval_ms = 1000;
            // <path>[:interval_ms] — the suffix is an interval only
            // when everything after the last ':' is digits.
            const std::size_t colon = spec.rfind(':');
            if (colon != std::string::npos &&
                colon + 1 < spec.size()) {
                const std::string tail = spec.substr(colon + 1);
                if (std::all_of(tail.begin(), tail.end(), [](char c) {
                        return std::isdigit(
                            static_cast<unsigned char>(c));
                    })) {
                    interval_ms = std::atoi(tail.c_str());
                    spec.resize(colon);
                }
            }
            if (!spec.empty())
                startHeartbeat(spec, interval_ms);
        }
    });
}

} // namespace so::trace
