/**
 * @file
 * Helper for constructing per-iteration task graphs.
 *
 * IterBuilder standardizes the resources every training system schedules
 * onto — the Hopper GPU stream, the Grace CPU (plus a background
 * resource for STV validation), the two C2C directions, and the
 * collective fabric; each runs one task at a time — and owns the cost
 * model they share: a search candidate's pass times and iteration
 * FLOPs, task durations for work descriptions (bytes, parameter
 * counts) from the hardware model, and the measured window of the
 * finished schedule. Strategies then express only their
 * schedule structure (plus any cost of their own, such as Megatron's
 * tensor-parallel GEMM penalty). The result's profile and energy
 * totals come from sim (profileSchedule, attributeEnergy,
 * meterEnergy) at the default level of detail, which follows the graph
 * size; the builder adds only the per-iteration and per-token joules.
 */
#ifndef SO_RUNTIME_BUILDER_H
#define SO_RUNTIME_BUILDER_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hw/collective.h"
#include "hw/memory.h"
#include "hw/power.h"
#include "runtime/system.h"
#include "sim/graph.h"
#include "sim/profiler.h"
#include "sim/scheduler.h"

namespace so::runtime {

/** Seconds of one work chunk's forward and backward pass. */
struct PassTimes
{
    double fwd = 0.0;
    double bwd = 0.0;
};

/** Standard resources + duration models for one simulated rank. */
class IterBuilder
{
  public:
    /**
     * @param opts hierarchy construction options; the default is the
     * canonical staged hierarchy whose channels map exactly onto the
     * seed resource set. Extra paths (e.g. GDS) allocate their own sim
     * resources after the standard seven.
     */
    explicit IterBuilder(const TrainSetup &setup,
                         hw::HierarchyOptions opts = {});

    /// @name Resources
    /// @{
    sim::ResourceId gpu() const { return gpu_; }
    sim::ResourceId cpu() const { return cpu_; }
    sim::ResourceId h2d() const { return h2d_; }
    sim::ResourceId d2h() const { return d2h_; }
    /** Cross-GPU collective fabric (NVLink / Slingshot). */
    sim::ResourceId nic() const { return nic_; }
    /** Node-local NVMe channel (ZeRO-Infinity's third tier). */
    sim::ResourceId nvme() const { return nvme_; }

    /** The memory hierarchy this rank schedules transfers over. */
    const hw::MemoryHierarchy &hierarchy() const { return hier_; }

    /** Sim resource carrying hierarchy channel @p channel. */
    sim::ResourceId channelResource(std::string_view channel) const;
    /// @}

    /// @name Duration models
    /// @{
    /**
     * GEMM time for @p flops at a micro-batch of @p micro_tokens
     * tokens. Small per-kernel token counts reduce sustained GEMM
     * efficiency (tile quantization / launch overheads), which is why
     * small micro-batches hurt throughput even before accumulation
     * overhead.
     */
    double gemmTime(double flops, double micro_tokens) const;

    /** Fused-attention time for @p flops. */
    double attnTime(double flops) const;

    /** One host->device message of @p bytes over the effective link. */
    double h2dTime(double bytes, bool pinned = true) const;

    /** One device->host message of @p bytes. */
    double d2hTime(double bytes, bool pinned = true) const;

    /**
     * One message of @p bytes over the primary @p from -> @p to
     * hierarchy path. transferTime("DDR", "HBM", b) == h2dTime(b): the
     * legacy helpers are aliases of the canonical tier pairs.
     */
    double transferTime(std::string_view from, std::string_view to,
                        double bytes, bool pinned = true) const;

    /** One message of @p bytes over a specific hierarchy path. */
    double pathTime(const hw::MemoryPath &path, double bytes,
                    bool pinned = true) const;

    /**
     * Time to move @p bytes in granule-sized messages (each paying the
     * granule's achievable bandwidth + latency). Models systems that
     * transfer through small staging buffers (ZeRO-Infinity, §5.2).
     * @param per_chunk_overhead host-side cost per granule (buffer
     * management, CUDA event synchronization) added on top of the link
     * time.
     */
    double chunkedTransferTime(double bytes, double granule,
                               bool pinned = true,
                               double per_chunk_overhead = 0.0) const;

    /** Chunked transfer over the primary @p from -> @p to path. */
    double chunkedTransferTime(std::string_view from, std::string_view to,
                               double bytes, double granule,
                               bool pinned = true,
                               double per_chunk_overhead = 0.0) const;

    /** CPU optimizer step time for @p params with @p impl (§4.6). */
    double cpuAdamTime(double params, hw::AdamImpl impl) const;

    /** GPU (HBM-bound) optimizer step time for @p params. */
    double gpuAdamTime(double params) const;

    /** One NVMe transfer of @p bytes (requires an NVMe-equipped chip). */
    double nvmeTime(double bytes) const;

    /** CPU-side fp16<->fp32 cast of @p elements (DDR-bound, §4.5). */
    double cpuCastTime(double elements) const;

    /** GPU-side fp16<->fp32 cast of @p elements (HBM-bound, §4.5). */
    double gpuCastTime(double elements) const;

    /** Collective cost model for this cluster. */
    const hw::CollectiveCost &coll() const { return coll_; }

    /** Tokens per micro-batch for @p micro sequences. */
    double microTokens(std::uint32_t micro) const;
    /// @}

    /// @name Per-candidate cost model
    /// @{
    /**
     * Forward and backward time of one of @p chunks equal slices
     * (layers, buckets, pipeline stages) of @p cand's micro-batch; the
     * backward includes the checkpointing recompute. With
     * @p seq_shards > 1 every sequence is split across that many ranks
     * (Ulysses, §4.7): a rank runs 1/seq_shards of the FLOPs over
     * 1/seq_shards of the tokens.
     */
    PassTimes passTimes(const SearchCandidate &cand, double chunks,
                        double seq_shards = 1.0) const;

    /**
     * FLOPs of @p cand's whole iteration (all accumulation steps), as
     * the per-rank share when @p ranks split the work (the MP, PP or SP
     * degree).
     */
    model::IterationFlops iterationFlops(const SearchCandidate &cand,
                                         double ranks = 1.0) const;
    /// @}

    /// @name Task helpers (thin wrappers over TaskGraph::addTask)
    ///
    /// Labels and dependency lists are borrowed views. A numbered task
    /// passes its stem and index, `{"adam b", c}`, never formatted text:
    /// with a literal stem and a `{a, b}` brace list (or one vector
    /// reused across tasks) a task costs no formatting, hash probe or
    /// heap allocation (the graph interns the stem and pools the deps).
    /// @{
    sim::TaskId onGpu(sim::Label label, double seconds,
                      sim::DepView deps = {}, std::int32_t priority = 0);
    sim::TaskId onCpu(sim::Label label, double seconds,
                      sim::DepView deps = {}, std::int32_t priority = 0);
    sim::TaskId onCpuBg(sim::Label label, double seconds,
                        sim::DepView deps = {},
                        std::int32_t priority = 0);
    sim::TaskId onNic(sim::Label label, double seconds,
                      sim::DepView deps = {}, std::int32_t priority = 0);

    /**
     * Schedule a transfer of @p bytes (taking @p seconds, typically
     * from transferTime or chunkedTransferTime) on the primary
     * @p from -> @p to path's channel, and account the bytes to that
     * path for the per-tier traffic report. This is the way to emit
     * inter-tier moves.
     */
    sim::TaskId onTransfer(std::string_view from, std::string_view to,
                           sim::Label label, double seconds,
                           double bytes, sim::DepView deps = {},
                           std::int32_t priority = 0);

    /**
     * Like onTransfer but over a specific path (for multi-path systems
     * striping one logical move across concurrent routes). @p path must
     * belong to hierarchy().paths().
     */
    sim::TaskId onPath(const hw::MemoryPath &path, sim::Label label,
                       double seconds, double bytes,
                       sim::DepView deps = {}, std::int32_t priority = 0);
    /// @}

    /**
     * Pre-size the graph for the schedule shape the caller is about to
     * build: @p tasks expected addTask calls, @p edges expected total
     * dependency-list entries. Every runtime system calls this with the
     * counts its loop structure implies (see docs/SWEEP.md).
     */
    void reserve(std::size_t tasks, std::size_t edges);

    sim::TaskGraph &graph() { return graph_; }

    /**
     * Run the scheduler and package the result: iteration time =
     * makespan, utilizations measured over [0, makespan), ASCII Gantt
     * attached for diagnostics. @p flops fills the FLOP accounting.
     */
    IterationResult finish(const model::IterationFlops &flops) const;

    /**
     * Like finish() but measures the steady-state window [@p win_begin,
     * @p win_end) instead of the whole makespan — used by systems that
     * overlap consecutive iterations (STV, §4.4).
     */
    IterationResult finishWindow(const model::IterationFlops &flops,
                                 double win_begin, double win_end,
                                 const sim::Schedule &schedule) const;

    /**
     * Schedule kSteadyStateIterations back-to-back iterations and
     * measure the steady state: from the start of the second
     * iteration's first task to the start of the third's.
     * @p first_tasks holds each iteration's first task.
     */
    IterationResult
    finishSteadyState(const model::IterationFlops &flops,
                      const std::vector<sim::TaskId> &first_tasks) const;

    /** Schedule the current graph (for systems needing raw access). */
    sim::Schedule schedule() const;

  private:
    const TrainSetup &setup_;
    const hw::SuperchipSpec &chip_;
    const hw::Link &host_link_;
    hw::CollectiveCost coll_;
    hw::MemoryHierarchy hier_;
    hw::PowerModel power_;
    sim::TaskGraph graph_;
    sim::ResourceId gpu_;
    sim::ResourceId cpu_;
    sim::ResourceId cpu_bg_;
    sim::ResourceId h2d_;
    sim::ResourceId d2h_;
    sim::ResourceId nic_;
    sim::ResourceId nvme_;
    /** Channel name -> sim resource, one entry per distinct channel. */
    std::vector<std::pair<std::string, sim::ResourceId>> channels_;
    /** Bytes scheduled per hierarchy path (tier-traffic accounting). */
    std::vector<double> path_bytes_;
    /**
     * Bytes moved by each task, for per-task transfer energy: indexed
     * by task id up to the last transfer, 0 for tasks that move none.
     */
    std::vector<double> task_bytes_;
    /** The task count given to reserve(). */
    std::size_t reserved_tasks_ = 0;

    /**
     * Fill @p res.energy from the finished @p schedule: the
     * electrical model keyed by sim resource goes to
     * sim::attributeEnergy when @p profile is given (the returned
     * EnergyProfile is then valid, for the profile/bundle JSON
     * documents) and to sim::meterEnergy otherwise; only the
     * per-iteration and per-token joules are computed here.
     */
    sim::EnergyProfile fillEnergy(IterationResult &res,
                                  const sim::Schedule &schedule,
                                  const sim::ScheduleProfile *profile) const;
};

/**
 * Token count below which GEMM efficiency degrades appreciably;
 * efficiency scale = tokens / (tokens + kGemmEffTokens).
 */
inline constexpr double kGemmEffTokens = 1024.0;

/** Transfer bucket size chosen by SuperOffload (§4.3): 64 MB. */
inline constexpr double kBucketBytes = 64.0 * 1024.0 * 1024.0;

/**
 * Iterations simulated back to back by systems that overlap consecutive
 * iterations (STV, §4.4); finishSteadyState measures the middle one.
 */
inline constexpr std::uint32_t kSteadyStateIterations = 3;

} // namespace so::runtime

#endif // SO_RUNTIME_BUILDER_H
