/**
 * @file
 * Training-system abstraction shared by every baseline and by
 * SuperOffload itself.
 *
 * A TrainingSystem answers, for one training setup (cluster, model,
 * batch, sequence length): does it fit, and what does one iteration's
 * schedule look like? Micro-batch selection follows the paper's §5.2
 * protocol: when the requested batch does not fit, try (1) smaller
 * micro-batches with gradient accumulation and (2) activation
 * checkpointing with the largest feasible micro-batch, and report
 * whichever yields higher throughput. Recompute FLOPs are excluded from
 * effective-TFLOPS numbers, also per §5.2.
 *
 * The search is factored into three pure stages so the SweepEngine can
 * fan the simulations out across threads:
 *
 *   enumerateCandidates()  -> every simulation of the search (memory
 *                             screen, then each system's expansion hook)
 *   evaluateCandidate()    -> one simulation, thread-safe, any order
 *   CellLead / selectBest() -> first-wins argmax in enumeration order,
 *                             folded as results land
 *
 * No system keeps a search loop of its own: SuperOffload's §4.3
 * retained-bucket grid is part of its enumeration, one candidate per
 * count. run() composes the stages serially and is the single-threaded
 * convenience entry point.
 */
#ifndef SO_RUNTIME_SYSTEM_H
#define SO_RUNTIME_SYSTEM_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hw/collective.h"
#include "hw/memory.h"
#include "hw/power.h"
#include "hw/presets.h"
#include "hw/topology.h"
#include "model/config.h"
#include "model/flops.h"
#include "model/memory.h"
#include "sim/profiler.h"

namespace so::runtime {

/** One training configuration to evaluate. */
struct TrainSetup
{
    hw::ClusterSpec cluster;
    model::ModelConfig model;
    /** Sequences per iteration across the whole cluster. */
    std::uint32_t global_batch = 8;
    /** Tokens per sequence. */
    std::uint32_t seq = 1024;
    /** Launcher NUMA binding quality (§4.7). */
    hw::NumaBinding binding = hw::NumaBinding::Colocated;

    /**
     * Attach a chrome://tracing JSON of the simulated schedule to the
     * result (IterationResult::trace_json). Off by default: the trace
     * is large and most sweeps run thousands of simulations.
     */
    bool capture_trace = false;

    /**
     * Attach a schedule profile (critical path, per-task slack,
     * idle-cause attribution) to the result: the compact summary in
     * IterationResult::profile plus the full document in
     * IterationResult::profile_json. When combined with capture_trace,
     * the trace additionally carries critical-path flow arrows and
     * per-resource occupancy counter tracks. Off by default for the
     * same reason as capture_trace. The level of detail follows the
     * graph size (sim::ProfileOptions::Detail::Auto): a graph of
     * kAutoSummaryTasks or more tasks keeps only bounded histograms
     * and top-K lists and gets no inline bundle document
     * (docs/OBSERVABILITY.md).
     */
    bool capture_profile = false;

    /**
     * Per-job overrides of the derived electrical model (hw/power.h,
     * docs/ENERGY.md). Energy metering itself is always on — it is a
     * cheap post-pass over the finished schedule and never changes it.
     */
    hw::PowerOverrides power;

    /** Sequences per GPU per iteration (>= 1). */
    std::uint32_t perGpuBatch() const;
};

/**
 * One point of a system's search space, fully determined by data: the
 * §5.2 micro-batch / checkpointing choice plus a system-specific
 * variant index (Megatron's MP degree, Pipeline's stage count,
 * SuperOffload's weight placement; 0 for systems with no extra
 * dimension) and SuperOffload's retained-bucket count. Candidates are
 * plain values so independent simulations can run on any thread in any
 * order.
 */
struct SearchCandidate
{
    std::uint32_t micro_batch = 1;
    std::uint32_t accum_steps = 1;
    bool checkpointing = false;
    /** System-specific search dimension (MP degree, stages, placement). */
    std::uint32_t variant = 0;
    /**
     * Optimizer buckets repartitioned onto the GPU (SuperOffload's
     * §4.3 count); 0 for every other system.
     */
    std::uint32_t retained_buckets = 0;
};

/** Demand vs capacity of one memory tier for one rank. */
struct TierUsage
{
    /** Tier lookup key ("HBM", "DDR", "NVMe"). */
    std::string tier;
    /** Diagnostic label ("GPU memory", "host DRAM", "NVMe"). */
    std::string description;
    hw::TierKind kind = hw::TierKind::Host;
    double bytes = 0.0;
    double capacity = 0.0;

    bool fits() const { return bytes <= capacity || bytes == 0.0; }
};

/** Memory demand vs capacity for one rank. */
struct MemoryReport
{
    double gpu_bytes = 0.0;
    double gpu_capacity = 0.0;
    double cpu_bytes = 0.0;
    double cpu_capacity = 0.0;
    /** NVMe tier (ZeRO-Infinity's third tier); both 0 when unused. */
    double nvme_bytes = 0.0;
    double nvme_capacity = 0.0;

    /**
     * Per-tier breakdown in hierarchy order (hot -> cold). The legacy
     * scalars above mirror the HBM/DDR/NVMe entries for existing
     * consumers; the vector is the generic N-tier view.
     */
    std::vector<TierUsage> tiers;

    bool fitsGpu() const { return gpu_bytes <= gpu_capacity; }
    bool fitsCpu() const { return cpu_bytes <= cpu_capacity; }
    bool fitsNvme() const { return nvme_bytes <= nvme_capacity || nvme_bytes == 0.0; }
    bool fits() const { return fitsGpu() && fitsCpu() && fitsNvme(); }
};

/**
 * The bounded part of the schedule profile (sim::ProfileTotals; see
 * sim/profiler.h for the full analysis) plus the hot-task labels.
 * Filled only when TrainSetup::capture_profile is set. Results keep
 * this base rather than the full sim::ScheduleProfile because every
 * cell's leading result lives in the sweep cache, and every in-flight
 * simulation holds one more: per-task arrays and bins there would grow
 * every sweep's peak memory.
 */
struct ProfileSummary : sim::ProfileTotals
{
    bool valid = false;

    /** Labels of the longest zero-slack tasks, longest first. */
    std::vector<std::string> hot_tasks;
};

/**
 * Joule accounting of one simulated iteration (docs/ENERGY.md): the
 * schedule's sim::EnergyTotals plus the per-iteration and per-token
 * figures. Always filled for feasible results; the per-phase and
 * idle-cause splits additionally require TrainSetup::capture_profile
 * (they ride the schedule profiler's attribution).
 */
struct EnergySummary : sim::EnergyTotals
{
    /** Energy-to-solution of one full iteration (all accum steps). */
    double iter_j = 0.0;
    /** Cluster joules per trained token (iter_j × chips / tokens). */
    double token_j = 0.0;
};

/** Outcome of evaluating one setup under one system. */
struct IterationResult
{
    bool feasible = false;
    std::string infeasible_reason;

    /** Wall-clock of one full iteration (all accumulation steps). */
    double iter_time = 0.0;
    std::uint32_t micro_batch = 0;
    std::uint32_t accum_steps = 1;
    bool activation_checkpointing = false;

    /** Busy fractions over the iteration, from the simulated schedule. */
    double gpu_utilization = 0.0;
    double cpu_utilization = 0.0;
    double link_utilization = 0.0;

    MemoryReport memory;

    /** Bytes moved over one hierarchy path during the iteration. */
    struct TierTraffic
    {
        /** Source / destination tier names ("DDR" -> "HBM"). */
        std::string from;
        std::string to;
        /** DES channel that carried the traffic ("H2D", "GDS", ...). */
        std::string channel;
        double bytes = 0.0;
    };

    /**
     * Per-path transfer traffic of the simulated schedule, in hierarchy
     * path order. Filled by IterBuilder for schedules built through the
     * tier-pair transfer primitives; paths that moved no bytes are
     * included with bytes == 0 so consumers see the full topology.
     */
    std::vector<TierTraffic> tier_traffic;

    /** Per-rank FLOP breakdown of the whole iteration. */
    model::IterationFlops flops;

    /** ASCII Gantt chart of the simulated schedule (diagnostics). */
    std::string gantt;

    /** System-specific annotations (e.g. chosen policy parameters). */
    std::string notes;

    /**
     * Machine-readable system-specific outputs (e.g. "mp", "stages",
     * "placement", "retained_buckets"), in insertion order so JSON
     * emission is deterministic.
     */
    std::vector<std::pair<std::string, double>> extras;

    /**
     * chrome://tracing JSON of the schedule; filled only when the
     * setup's capture_trace flag was set.
     */
    std::string trace_json;

    /**
     * Compact profile summary; profile.valid (and profile_json below)
     * only when the setup's capture_profile flag was set.
     */
    ProfileSummary profile;

    /**
     * Joule accounting of the simulated schedule; always valid for
     * feasible results (phase/idle-cause splits need capture_profile).
     */
    EnergySummary energy;

    /** Full schedule-profile JSON document (sim::profileToJson). */
    std::string profile_json;

    /**
     * Inspection-bundle JSON (sim::bundleToJson): per-task spans plus
     * the dependency edge list, the input of the HTML Schedule
     * Explorer (report/html.h). Filled alongside profile_json when the
     * setup's capture_profile flag was set and the profile kept Full
     * detail (a Summary profile has no per-task arrays to flatten).
     */
    std::string bundle_json;

    /** Set (or overwrite) one named extra. */
    void setExtra(const std::string &key, double value);

    /** Look up a named extra; @p fallback when absent. */
    double extra(const std::string &key, double fallback = 0.0) const;

    /** Effective TFLOPS per GPU: model flops (no recompute) / time. */
    double tflopsPerGpu() const;

    /** MFU against @p peak_flops (theoretical per-GPU peak). */
    double mfuAgainst(double peak_flops) const;
};

/**
 * The running winner of one cell's search, the reduction that
 * selectBest, TrainingSystem::run and the SweepEngine share. A result
 * takes the lead iff its tflopsPerGpu() is strictly greater than the
 * lead's, or equal with a lower enumeration index. For non-NaN scores
 * that is a total order, so the winner is the first-wins argmax in
 * enumeration order whatever order the results arrive in. A result
 * that loses is freed at once, so a cell holds one result however many
 * candidates it simulates. Not synchronized: concurrent offers need the
 * caller's lock.
 */
class CellLead
{
  public:
    /**
     * Offer @p res, the result of the candidate at enumeration index
     * @p index; @panic when its score is NaN.
     */
    void offer(std::size_t index, IterationResult res);

    /** True until the first offer. */
    bool empty() const { return !held_; }

    /** Move the leading result out; the lead must not be empty. */
    IterationResult take();

  private:
    bool held_ = false;
    std::size_t index_ = 0;
    double score_ = 0.0;
    IterationResult lead_;
};

/** Common interface of all nine training systems evaluated in §5. */
class TrainingSystem
{
  public:
    virtual ~TrainingSystem() = default;

    /** Display name, e.g. "ZeRO-Offload". */
    virtual std::string name() const = 0;

    /**
     * Evaluate @p setup: enumerate candidates, simulate each, and
     * return the best feasible schedule (or an infeasible result
     * naming the limiting resource). Equivalent to enumerateCandidates
     * + evaluateCandidate + selectBest run serially.
     */
    IterationResult run(const TrainSetup &setup) const;

    /**
     * Every simulation of @p setup's search, in evaluation order. The
     * memory screen picks, for each search variant, the largest plain
     * micro-batch that fits plus the largest checkpointed micro-batch
     * when it unlocks a strictly larger one (§5.2); expandCandidate
     * then turns each screened candidate into its simulations. Empty
     * when no candidate fits (the fallback variant is also screened
     * first, so e.g. Pipeline's layer-bounded stage count still shows
     * up).
     */
    std::vector<SearchCandidate>
    enumerateCandidates(const TrainSetup &setup) const;

    /**
     * Simulate one candidate. Pure with respect to the system object:
     * safe to call concurrently from many threads for the same or
     * different candidates. Fills feasibility, memory report, and the
     * simulated schedule.
     */
    IterationResult evaluateCandidate(const TrainSetup &setup,
                                      const SearchCandidate &cand) const;

    /**
     * Deterministic reduction: folds @p results, positionally parallel
     * to @p cands, through one CellLead (so earlier candidates win
     * ties, matching the serial search). When @p cands is empty,
     * reconstructs the infeasible diagnosis at the fallback variant.
     */
    IterationResult selectBest(const TrainSetup &setup,
                               const std::vector<SearchCandidate> &cands,
                               std::vector<IterationResult> results) const;

    /**
     * The cell's answer from its folded @p lead: the leading result, or
     * the infeasible diagnosis at the fallback variant when nothing was
     * offered (no candidate survived the screen).
     */
    IterationResult selectBest(const TrainSetup &setup, CellLead lead) const;

  protected:
    /**
     * Per-GPU resident bytes (model states + activations + overheads)
     * for the candidate's micro-batch / checkpointing / variant.
     */
    virtual double gpuBytes(const TrainSetup &setup,
                            const SearchCandidate &cand) const = 0;

    /** Per-rank host-DRAM bytes the system keeps on the CPU. */
    virtual double cpuBytes(const TrainSetup &setup,
                            const SearchCandidate &cand) const = 0;

    /** Per-rank NVMe bytes (0 unless the system uses the third tier). */
    virtual double nvmeBytes(const TrainSetup &,
                             const SearchCandidate &) const
    {
        return 0.0;
    }

    /**
     * Expansion hook: append the simulations that stand for the
     * screened candidate @p cand to @p out, in evaluation order
     * (earlier ones win throughput ties). enumerateCandidates calls it
     * once per screened candidate, after the memory screen. The
     * default appends @p cand as it is; SuperOffload appends one
     * candidate per retained-bucket count of its §4.3 grid.
     */
    virtual void expandCandidate(const TrainSetup &setup,
                                 const SearchCandidate &cand,
                                 std::vector<SearchCandidate> &out) const;

    /**
     * Whether the §5.2 search may fall back to activation
     * checkpointing. Vanilla DDP returns false: checkpointing requires
     * wrapping the model code, which the "standard PyTorch Transformer
     * implementation" baseline does not do.
     */
    virtual bool allowCheckpointing() const { return true; }

    /**
     * Build and simulate one iteration's task graph for the candidate.
     * Must fill iter_time, utilizations, flops, gantt, and any
     * system-specific notes/extras; evaluateCandidate fills the rest.
     * Must be thread-safe: no mutation of system state.
     */
    virtual IterationResult simulate(const TrainSetup &setup,
                                     const SearchCandidate &cand) const = 0;

    /**
     * The system-specific search dimension, in evaluation order
     * (earlier variants win throughput ties). Default: the single
     * variant 0.
     */
    virtual std::vector<std::uint32_t>
    searchVariants(const TrainSetup &setup) const;

    /**
     * Variant used to diagnose (and possibly rescue) an all-infeasible
     * search: Megatron reports at its largest MP degree, Pipeline
     * retries at a layer-bounded stage count. Default: the first search
     * variant.
     */
    virtual std::uint32_t fallbackVariant(const TrainSetup &setup) const;

    /**
     * Sequences each rank processes per iteration. The default is
     * setup.perGpuBatch(); sequence-parallel systems return the global
     * batch (every rank works on every sequence).
     */
    virtual std::uint32_t perRankBatch(const TrainSetup &setup) const;

    /** CPU capacity available to the system (usable fraction applied). */
    static double cpuCapacity(const TrainSetup &setup);

    /** GPU HBM capacity per rank. */
    static double gpuCapacity(const TrainSetup &setup);

    /**
     * Activation bytes one rank holds for @p cand's micro-batch, the
     * term every gpuBytes adds to its resident states;
     * @p sequence_parallel splits each sequence across that many ranks
     * (Ulysses, §4.7).
     */
    static double activationBytes(const TrainSetup &setup,
                                  const SearchCandidate &cand,
                                  std::uint32_t sequence_parallel = 1);

    /**
     * Hierarchy construction options for this system. The default is
     * the canonical staged hierarchy; multi-path systems enable the
     * extra routes here so fit checks, the builder, and the fingerprint
     * all see the same topology.
     */
    virtual hw::HierarchyOptions hierarchyOptions() const { return {}; }

    /** The memory hierarchy of @p setup's Superchip for this system. */
    hw::MemoryHierarchy hierarchy(const TrainSetup &setup) const;

    /**
     * Per-rank bytes this system keeps in @p tier. The default
     * dispatches on the tier kind to the gpuBytes / cpuBytes /
     * nvmeBytes virtuals; systems with bespoke placement override this
     * directly.
     */
    virtual double tierBytes(const TrainSetup &setup,
                             const SearchCandidate &cand,
                             const hw::MemoryTier &tier) const;

    /**
     * Demand vs capacity of every tier for @p cand, in hierarchy order.
     * When the system demands NVMe bytes on a chip with no NVMe tier, a
     * synthetic zero-capacity "NVMe" entry is appended so the overflow
     * is still diagnosable.
     */
    std::vector<TierUsage> tierDemands(const TrainSetup &setup,
                                       const SearchCandidate &cand) const;

  private:
    /**
     * §5.2 memory screen for one variant: appends the plain candidate
     * and, when strictly larger, the checkpointed candidate to @p out.
     * Returns true when at least one candidate was appended.
     */
    bool screenVariant(const TrainSetup &setup, std::uint32_t variant,
                       std::vector<SearchCandidate> &out) const;

    /**
     * Reconstruct the infeasible diagnosis (NVMe, then host DRAM, then
     * GPU memory at micro-batch 1) for @p variant.
     */
    IterationResult infeasibleResult(const TrainSetup &setup,
                                     std::uint32_t variant) const;

    /** Fill the memory demand/capacity report for @p cand. */
    void fillMemory(IterationResult &res, const TrainSetup &setup,
                    const SearchCandidate &cand) const;
};

/** Shared pointer alias used by the registry. */
using SystemPtr = std::unique_ptr<TrainingSystem>;

} // namespace so::runtime

#endif // SO_RUNTIME_SYSTEM_H
