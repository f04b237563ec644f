#include "runtime/builder.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "sim/inspect.h"
#include "sim/profiler.h"
#include "sim/trace.h"

namespace so::runtime {

IterBuilder::IterBuilder(const TrainSetup &setup, hw::HierarchyOptions opts)
    : setup_(setup),
      chip_(setup.cluster.node.superchip),
      host_link_(hw::effectiveHostLink(setup.cluster.node, setup.binding)),
      coll_(hw::CollectiveCost::fromCluster(setup.cluster)),
      hier_(hw::memoryHierarchy(chip_, host_link_, opts)),
      power_(hw::powerModel(chip_, hier_, setup.power))
{
    // The standard seven resources, in an order pinned by tests (and by
    // stored schedules): the hierarchy's canonical channels map onto
    // them by name, so the default hierarchy adds no resources.
    gpu_ = graph_.addResource("GPU");
    cpu_ = graph_.addResource("CPU");
    cpu_bg_ = graph_.addResource("CPU-bg");
    h2d_ = graph_.addResource("H2D");
    d2h_ = graph_.addResource("D2H");
    nic_ = graph_.addResource("NIC");
    nvme_ = graph_.addResource("NVMe");

    channels_.emplace_back(std::string(hw::kChannelH2d), h2d_);
    channels_.emplace_back(std::string(hw::kChannelD2h), d2h_);
    channels_.emplace_back(std::string(hw::kChannelNvme), nvme_);
    for (const hw::MemoryPath &path : hier_.paths()) {
        bool known = false;
        for (const auto &chan : channels_)
            known = known || chan.first == path.channel;
        if (!known)
            channels_.emplace_back(path.channel,
                                   graph_.addResource(path.channel));
    }
    path_bytes_.assign(hier_.paths().size(), 0.0);
}

sim::ResourceId
IterBuilder::channelResource(std::string_view channel) const
{
    for (const auto &chan : channels_)
        if (chan.first == channel)
            return chan.second;
    SO_PANIC("unknown hierarchy channel '", std::string(channel), "'");
}

double
IterBuilder::gemmTime(double flops, double micro_tokens) const
{
    SO_ASSERT(micro_tokens > 0.0, "micro_tokens must be positive");
    const double eff = micro_tokens / (micro_tokens + kGemmEffTokens);
    return chip_.gpu.computeTime(flops) / eff;
}

double
IterBuilder::attnTime(double flops) const
{
    return chip_.gpu.attnComputeTime(flops);
}

double
IterBuilder::h2dTime(double bytes, bool pinned) const
{
    return transferTime(hw::kTierDdr, hw::kTierHbm, bytes, pinned);
}

double
IterBuilder::d2hTime(double bytes, bool pinned) const
{
    // The host link is symmetric per direction in all our presets.
    return transferTime(hw::kTierHbm, hw::kTierDdr, bytes, pinned);
}

double
IterBuilder::transferTime(std::string_view from, std::string_view to,
                          double bytes, bool pinned) const
{
    return pathTime(hier_.primaryPath(from, to), bytes, pinned);
}

double
IterBuilder::pathTime(const hw::MemoryPath &path, double bytes,
                      bool pinned) const
{
    return path.transferTime(bytes, pinned);
}

double
IterBuilder::chunkedTransferTime(double bytes, double granule,
                                 bool pinned,
                                 double per_chunk_overhead) const
{
    return chunkedTransferTime(hw::kTierDdr, hw::kTierHbm, bytes, granule,
                               pinned, per_chunk_overhead);
}

double
IterBuilder::chunkedTransferTime(std::string_view from,
                                 std::string_view to, double bytes,
                                 double granule, bool pinned,
                                 double per_chunk_overhead) const
{
    SO_ASSERT(granule > 0.0, "granule must be positive");
    if (bytes <= 0.0)
        return 0.0;
    const hw::MemoryPath &path = hier_.primaryPath(from, to);
    const double full_chunks = std::floor(bytes / granule);
    const double rest = bytes - full_chunks * granule;
    double time = full_chunks *
                  (pathTime(path, granule, pinned) + per_chunk_overhead);
    if (rest > 0.0)
        time += pathTime(path, rest, pinned) + per_chunk_overhead;
    return time;
}

double
IterBuilder::cpuAdamTime(double params, hw::AdamImpl impl) const
{
    return chip_.cpu.adamStepTime(params, impl);
}

double
IterBuilder::gpuAdamTime(double params) const
{
    return chip_.gpuAdamStepTime(params);
}

double
IterBuilder::nvmeTime(double bytes) const
{
    SO_ASSERT(chip_.nvme_bytes > 0.0,
              "this Superchip preset has no NVMe tier");
    return transferTime(hw::kTierDdr, hw::kTierNvme, bytes);
}

double
IterBuilder::cpuCastTime(double elements) const
{
    // Read fp16 (2 B) + write fp32 (4 B) per element, DDR-bound.
    return chip_.cpu.memTime(elements * 6.0);
}

double
IterBuilder::gpuCastTime(double elements) const
{
    // Same traffic but HBM-bound; the cast kernel streams at ~80%.
    return elements * 6.0 / (chip_.gpu.mem_bw * 0.8);
}

double
IterBuilder::microTokens(std::uint32_t micro) const
{
    return static_cast<double>(micro) * setup_.seq;
}

PassTimes
IterBuilder::passTimes(const SearchCandidate &cand, double chunks,
                       double seq_shards) const
{
    const model::IterationFlops micro = model::iterationFlops(
        setup_.model, cand.micro_batch, setup_.seq, cand.checkpointing);
    const double tokens = microTokens(cand.micro_batch) / seq_shards;
    PassTimes t;
    t.fwd = (gemmTime(micro.fwd_gemm / seq_shards, tokens) +
             attnTime(micro.fwd_attn / seq_shards)) /
            chunks;
    t.bwd = (gemmTime((micro.bwd_gemm + micro.recompute_gemm) / seq_shards,
                      tokens) +
             attnTime((micro.bwd_attn + micro.recompute_attn) /
                      seq_shards)) /
            chunks;
    return t;
}

model::IterationFlops
IterBuilder::iterationFlops(const SearchCandidate &cand, double ranks) const
{
    model::IterationFlops flops = model::iterationFlops(
        setup_.model,
        static_cast<double>(cand.micro_batch) * cand.accum_steps,
        setup_.seq, cand.checkpointing);
    flops.fwd_gemm /= ranks;
    flops.fwd_attn /= ranks;
    flops.bwd_gemm /= ranks;
    flops.bwd_attn /= ranks;
    flops.recompute_gemm /= ranks;
    flops.recompute_attn /= ranks;
    return flops;
}

sim::TaskId
IterBuilder::onGpu(std::string_view label, double seconds,
                   sim::DepView deps, std::int32_t priority)
{
    return graph_.addTask(gpu_, seconds, label, deps, priority);
}

sim::TaskId
IterBuilder::onCpu(std::string_view label, double seconds,
                   sim::DepView deps, std::int32_t priority)
{
    return graph_.addTask(cpu_, seconds, label, deps, priority);
}

sim::TaskId
IterBuilder::onCpuBg(std::string_view label, double seconds,
                     sim::DepView deps, std::int32_t priority)
{
    return graph_.addTask(cpu_bg_, seconds, label, deps, priority);
}

sim::TaskId
IterBuilder::onNic(std::string_view label, double seconds,
                   sim::DepView deps, std::int32_t priority)
{
    return graph_.addTask(nic_, seconds, label, deps, priority);
}

sim::TaskId
IterBuilder::onTransfer(std::string_view from, std::string_view to,
                        std::string_view label, double seconds,
                        double bytes, sim::DepView deps,
                        std::int32_t priority)
{
    return onPath(hier_.primaryPath(from, to), label, seconds, bytes,
                  deps, priority);
}

sim::TaskId
IterBuilder::onPath(const hw::MemoryPath &path, std::string_view label,
                    double seconds, double bytes, sim::DepView deps,
                    std::int32_t priority)
{
    const std::size_t index =
        static_cast<std::size_t>(&path - hier_.paths().data());
    SO_ASSERT(index < hier_.paths().size(),
              "onPath: path does not belong to this hierarchy");
    SO_ASSERT(bytes >= 0.0, "negative transfer bytes");
    path_bytes_[index] += bytes;
    const sim::TaskId id = graph_.addTask(channelResource(path.channel),
                                          seconds, label, deps, priority);
    if (bytes > 0.0)
        task_bytes_.emplace_back(id, bytes);
    return id;
}

void
IterBuilder::reserve(std::size_t tasks, std::size_t edges)
{
    // Also pre-sizes the graph's dependents-CSR arrays (same counts:
    // one offset per task, one slot per edge), so the first schedule()
    // builds the reverse index without reallocating.
    graph_.reserveTasks(tasks);
    graph_.reserveEdges(edges);
}

sim::Schedule
IterBuilder::schedule() const
{
    // Reuse this worker thread's scratch arena: sweeps simulate
    // thousands of graphs per thread, and the workspace makes that O(1)
    // scheduler allocations per thread instead of O(graphs). The
    // dependents CSR is cached on the graph itself, so systems that
    // schedule the same builder more than once (probe + final windows)
    // pay its O(V + E) build a single time.
    return sim::Scheduler().run(graph_, sim::Scheduler::threadWorkspace());
}

IterationResult
IterBuilder::finish(const model::IterationFlops &flops) const
{
    const sim::Schedule sched = schedule();
    return finishWindow(flops, 0.0, sched.makespan, sched);
}

IterationResult
IterBuilder::finishSteadyState(
    const model::IterationFlops &flops,
    const std::vector<sim::TaskId> &first_tasks) const
{
    SO_ASSERT(first_tasks.size() == kSteadyStateIterations,
              "finishSteadyState: ", first_tasks.size(),
              " first tasks for ", kSteadyStateIterations, " iterations");
    const sim::Schedule sched = schedule();
    const double win_begin = sched.start[first_tasks[1]];
    const double win_end = sched.start[first_tasks[2]];
    if (win_end > win_begin)
        return finishWindow(flops, win_begin, win_end, sched);
    // Degenerate fallback (should not occur): measure the whole run.
    IterationResult res = finishWindow(flops, 0.0, sched.makespan, sched);
    res.iter_time = sched.makespan / kSteadyStateIterations;
    return res;
}

sim::EnergyProfile
IterBuilder::fillEnergy(IterationResult &res, const sim::Schedule &schedule,
                        const sim::ScheduleProfile *profile) const
{
    // Re-key the name-keyed electrical model by sim ResourceId.
    sim::EnergyInputs inputs;
    inputs.resources.resize(graph_.resourceCount());
    for (sim::ResourceId r = 0; r < graph_.resourceCount(); ++r) {
        if (const hw::PowerProfile *p =
                power_.find(graph_.resource(r).name)) {
            inputs.resources[r] = {p->busy_w, p->idle_w,
                                   p->joules_per_byte};
        }
    }
    inputs.task_bytes.assign(graph_.taskCount(), 0.0);
    for (const auto &[task, bytes] : task_bytes_)
        inputs.task_bytes[task] += bytes;
    inputs.background.reserve(power_.background().size());
    for (const hw::BackgroundPower &bg : power_.background())
        inputs.background.emplace_back(bg.name, bg.watts);

    // With a profile, ride its attribution: same busy/idle partition,
    // same phaseKey grouping, idle joules split by cause.
    sim::EnergyProfile ep;
    EnergySummary &e = res.energy;
    if (profile != nullptr) {
        ep = sim::attributeEnergy(graph_, schedule, *profile, inputs);
        static_cast<sim::EnergyTotals &>(e) = ep;
    } else {
        static_cast<sim::EnergyTotals &>(e) =
            sim::meterEnergy(graph_, schedule, inputs);
    }
    // Energy-to-solution: the measurement window's share of the
    // schedule at the schedule's average draw (steady-state systems
    // measure one iteration out of a longer simulated schedule).
    e.iter_j = e.avg_w * res.iter_time;
    const double tokens = static_cast<double>(setup_.global_batch) *
                          static_cast<double>(setup_.seq);
    e.token_j = tokens > 0.0
                    ? e.iter_j * setup_.cluster.totalSuperchips() / tokens
                    : 0.0;
    return ep;
}

IterationResult
IterBuilder::finishWindow(const model::IterationFlops &flops,
                          double win_begin, double win_end,
                          const sim::Schedule &schedule) const
{
    SO_ASSERT(win_end > win_begin, "empty measurement window");
    IterationResult res;
    const double window = win_end - win_begin;
    res.iter_time = window;
    res.flops = flops;
    res.gpu_utilization =
        schedule.busyTime(gpu_, win_begin, win_end) / window;
    res.cpu_utilization =
        schedule.busyTime(cpu_, win_begin, win_end) / window;
    const double link_busy = schedule.busyTime(h2d_, win_begin, win_end) +
                             schedule.busyTime(d2h_, win_begin, win_end);
    res.link_utilization = link_busy / (2.0 * window);
    res.tier_traffic.reserve(hier_.paths().size());
    for (std::size_t i = 0; i < hier_.paths().size(); ++i) {
        const hw::MemoryPath &path = hier_.paths()[i];
        IterationResult::TierTraffic traffic;
        traffic.from = hier_.tiers()[path.src].name;
        traffic.to = hier_.tiers()[path.dst].name;
        traffic.channel = path.channel;
        traffic.bytes = path_bytes_[i];
        res.tier_traffic.push_back(std::move(traffic));
    }
    res.gantt = sim::toAsciiGantt(graph_, schedule);
    if (setup_.capture_profile) {
        // The profile covers the whole simulated schedule, not just the
        // [win_begin, win_end) measurement window: idle attribution is
        // only meaningful against the full iteration.
        const sim::ScheduleProfile prof =
            sim::profileSchedule(graph_, schedule);
        static_cast<sim::ProfileTotals &>(res.profile) = prof;
        res.profile.valid = true;
        for (sim::TaskId id : sim::topZeroSlackTasks(prof, graph_))
            res.profile.hot_tasks.emplace_back(graph_.label(id));
        const sim::EnergyProfile energy =
            fillEnergy(res, schedule, &prof);
        res.profile_json =
            sim::profileToJson(prof, graph_, schedule, 8, &energy);
        // A Summary profile has no per-task arrays, so the O(V) inline
        // bundle document is skipped — the bounded profile document
        // (binned histograms, top-K lists) is the at-scale artifact;
        // per-task data streams out as shards via writeBundleShards
        // when a caller asks for files (docs/OBSERVABILITY.md).
        if (!prof.summarized)
            res.bundle_json =
                sim::bundleToJson(graph_, schedule, prof, "", &energy);
        if (setup_.capture_trace)
            res.trace_json = sim::toChromeTrace(graph_, schedule, &prof);
    } else {
        fillEnergy(res, schedule, nullptr);
        if (setup_.capture_trace)
            res.trace_json = sim::toChromeTrace(graph_, schedule);
    }
    return res;
}

} // namespace so::runtime
