/**
 * @file
 * Simulation-kernel microbenchmark: how fast can one worker build and
 * schedule task graphs?
 *
 * This is the inner loop every sweep cell pays, isolated from the
 * hardware model: an offload-shaped graph (GPU chain + D2H swap-outs +
 * CPU optimizer tail) at 1k .. 10M tasks, timed separately for the
 * build phase (addTask into the SoA pools) and the schedule phase
 * (discrete-event run over a reused workspace). The 1M/10M sizes exist
 * to hold the schedule phase flat at scale (docs/PERF.md, "Event queue
 * at scale"): the resource-bounded event heap, bucketed ready sets,
 * and the graph-cached dependents CSR are all sized for them. The JSON
 * record carries, per size, the rep count, the mean seconds of each
 * phase and the tasks/sec derived from them.
 *
 * Run with --json [path] to write BENCH_sim_kernel.json (default path);
 * `so-report check` guards that record against a committed baseline
 * (docs/DIFF.md). --max-tasks N, a whole number >= 1, skips every size
 * above N; CI's perf-smoke step uses it to keep the wall-time budget.
 * --trace-dir DIR additionally profiles each measured size and streams
 * the Chrome trace, profile document, and chunked bundle shards there;
 * the profile's level of detail follows the graph size (Summary at >=
 * 200k tasks), so even the 1M/10M sizes export under a bounded memory
 * footprint. Any other argument exits so::kUsageError, naming it.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/argparse.h"
#include "common/file.h"
#include "common/json.h"
#include "common/trace.h"
#include "sim/graph.h"
#include "sim/inspect.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace {

using so::sim::ResourceId;
using so::sim::Scheduler;
using so::sim::TaskGraph;
using so::sim::TaskId;
using so::sim::kInvalidTask;

/**
 * Offload-shaped graph of roughly @p target_tasks tasks: an
 * accumulation loop of forward/backward chains with per-layer D2H
 * swap-outs and CPU optimizer steps on the last pass.
 */
TaskGraph
buildGraph(std::size_t target_tasks)
{
    // Tasks per layer across the shape below: 2*accum compute + 2
    // offload + 1 optimizer, with accum=4 -> 11 tasks per layer.
    constexpr std::uint32_t kAccum = 4;
    const std::size_t layers =
        std::max<std::size_t>(1, target_tasks / (2 * kAccum + 3));

    TaskGraph g;
    const ResourceId gpu = g.addResource("GPU");
    const ResourceId d2h = g.addResource("D2H");
    const ResourceId cpu = g.addResource("CPU");
    g.reserveTasks(2 * kAccum * layers + 3 * layers + 1);
    g.reserveEdges(2 * kAccum * layers + 4 * layers + 1);

    TaskId prev = kInvalidTask;
    std::vector<TaskId> opts;
    opts.reserve(layers);
    for (std::uint32_t step = 0; step < kAccum; ++step) {
        for (std::size_t l = 0; l < layers; ++l) {
            prev = g.addTask(gpu, 1e-3, {"fwd L", l},
                             so::sim::DepView::optional(prev));
        }
        const bool last = step + 1 == kAccum;
        for (std::size_t l = layers; l-- > 0;) {
            prev = g.addTask(gpu, 2e-3, {"bwd L", l}, {prev});
            if (!last)
                continue;
            const TaskId moved = g.addTask(d2h, 5e-4, {"d2h g L", l}, {prev});
            opts.push_back(g.addTask(
                cpu, 8e-4, "adam (fused, per-bucket dispatch)",
                {moved}));
        }
    }
    g.addTask(cpu, 1e-4, "grad-norm+check", opts);
    return g;
}

struct SizeResult
{
    std::size_t tasks = 0;
    std::size_t reps = 0;
    double build_s = 0.0;    // mean seconds per graph build
    double schedule_s = 0.0; // mean seconds per schedule run
};

SizeResult
measure(std::size_t target_tasks)
{
    using clock = std::chrono::steady_clock;
    // Repeat until the measurement is comfortably above timer noise.
    // The million-task sizes are seconds per rep all by themselves, so
    // they get a smaller floor — one rep is already ~10^7 timer ticks.
    constexpr double kMinSeconds = 0.2;
    const std::size_t kMinReps = target_tasks >= 1'000'000 ? 2 : 3;

    Scheduler::Workspace ws;
    // The schedule is recycled across reps like the workspace: the
    // steady-state cost of the kernel is the event loop, not the OS
    // re-faulting tens of MB of discarded result pages per run.
    so::sim::Schedule sched;
    // Warm up: grow the workspace heaps and fault in the code paths.
    {
        const TaskGraph g = buildGraph(target_tasks);
        Scheduler().run(g, ws, sched);
    }

    SizeResult out;
    double build_total = 0.0;
    double schedule_total = 0.0;
    while (out.reps < kMinReps ||
           build_total + schedule_total < kMinSeconds) {
        const auto t0 = clock::now();
        const TaskGraph g = buildGraph(target_tasks);
        const auto t1 = clock::now();
        Scheduler().run(g, ws, sched);
        const auto t2 = clock::now();
        if (sched.makespan <= 0.0) {
            std::fprintf(stderr, "bogus schedule (makespan 0)\n");
            std::exit(1);
        }
        out.tasks = g.taskCount();
        build_total += std::chrono::duration<double>(t1 - t0).count();
        schedule_total += std::chrono::duration<double>(t2 - t1).count();
        ++out.reps;
    }
    out.build_s = build_total / static_cast<double>(out.reps);
    out.schedule_s = schedule_total / static_cast<double>(out.reps);
    return out;
}

/**
 * Profile one size and stream the full artifact set to @p dir:
 * `sim_kernel_<N>.trace.json` (Chrome trace), `.profile.json`, and
 * `.bundle.jsonl` (chunked shards). Everything is streamed, and the
 * big sizes profile in Summary mode, so peak memory stays bounded even
 * at 10M tasks (docs/OBSERVABILITY.md).
 */
bool
exportArtifacts(std::size_t target_tasks, const std::string &dir)
{
    const TaskGraph g = buildGraph(target_tasks);
    Scheduler::Workspace ws;
    so::sim::Schedule sched;
    Scheduler().run(g, ws, sched);
    const so::sim::ScheduleProfile prof = so::sim::profileSchedule(g, sched);

    const std::string stem =
        dir + "/sim_kernel_" + std::to_string(target_tasks);
    {
        std::ofstream out(stem + ".trace.json", std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s.trace.json\n",
                         stem.c_str());
            return false;
        }
        so::sim::streamChromeTrace(out, g, sched, &prof);
        if (!out.flush()) {
            std::fprintf(stderr, "short write on %s.trace.json\n",
                         stem.c_str());
            return false;
        }
    }
    {
        std::ofstream out(stem + ".profile.json", std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cannot write %s.profile.json\n",
                         stem.c_str());
            return false;
        }
        so::sim::streamProfileJson(out, prof, g, sched);
        if (!out.flush()) {
            std::fprintf(stderr, "short write on %s.profile.json\n",
                         stem.c_str());
            return false;
        }
    }
    if (!so::sim::writeBundleShards(stem + ".bundle.jsonl", g, sched,
                                    prof, "sim_kernel"))
        return false;
    std::printf("%10zu   wrote %s.{trace.json,profile.json,"
                "bundle.jsonl}%s\n",
                target_tasks, stem.c_str(),
                prof.summarized ? " (summary detail)" : "");
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // No Harness here, so apply SO_TRACE/SO_HEARTBEAT too: the perf
    // guard's own runs stay observable.
    so::trace::initFromEnv();
    const so::ArgParser args(
        argc, argv,
        {{.name = "json", .bare = "BENCH_sim_kernel.json"},
         {.name = "max-tasks", .kind = so::ArgKind::Count1},
         {.name = "trace-dir"}});
    if (!args.error().empty())
        so::usageError(args.error());
    const std::string json_path = args.get("json");
    const std::string trace_dir = args.get("trace-dir");
    const std::size_t max_tasks = args.count("max-tasks", 0); // 0: no cap.

    if (!trace_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(trace_dir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         trace_dir.c_str(), ec.message().c_str());
            return 1;
        }
    }

    std::printf("sim-kernel microbenchmark: graph build + schedule\n");
    std::printf("%10s %6s %14s %14s %16s %16s\n", "tasks", "reps",
                "build ms", "schedule ms", "build tasks/s",
                "sched tasks/s");

    const std::size_t sizes[] = {1000, 10000, 100000, 1'000'000,
                                 10'000'000};
    std::vector<SizeResult> results;
    for (std::size_t size : sizes) {
        if (max_tasks != 0 && size > max_tasks) {
            // Notice goes to stderr: stdout stays a clean table for
            // anything scraping the bench output.
            std::fprintf(stderr, "%10zu   (skipped: --max-tasks %zu)\n",
                         size, max_tasks);
            continue;
        }
        const SizeResult r = measure(size);
        const double n = static_cast<double>(r.tasks);
        std::printf("%10zu %6zu %14.3f %14.3f %16.0f %16.0f\n", r.tasks,
                    r.reps, r.build_s * 1e3, r.schedule_s * 1e3,
                    n / r.build_s, n / r.schedule_s);
        if (!(n / r.build_s > 0.0) || !(n / r.schedule_s > 0.0)) {
            std::fprintf(stderr, "non-positive throughput\n");
            return 1;
        }
        results.push_back(r);
        if (!trace_dir.empty() && !exportArtifacts(size, trace_dir))
            return 1;
    }

    if (!json_path.empty()) {
        so::JsonWriter json;
        json.beginObject();
        json.field("bench", "sim_kernel");
        json.key("sizes").beginArray();
        for (const SizeResult &r : results) {
            const double n = static_cast<double>(r.tasks);
            json.beginObject();
            json.field("tasks", static_cast<std::uint64_t>(r.tasks));
            json.field("reps", static_cast<std::uint64_t>(r.reps));
            json.field("build_s_mean", r.build_s);
            json.field("schedule_s_mean", r.schedule_s);
            json.field("build_tasks_per_s", n / r.build_s);
            json.field("schedule_tasks_per_s", n / r.schedule_s);
            json.field("total_tasks_per_s",
                       n / (r.build_s + r.schedule_s));
            json.endObject();
        }
        json.endArray();
        json.endObject();

        if (!so::writeFile(json_path, {json.str(), "\n"})) {
            std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
            return 1;
        }
        std::printf("\nwrote %s\n", json_path.c_str());
    }
    return 0;
}
