/**
 * @file
 * Parallel, cached sweep evaluation over (system, setup) grids.
 *
 * Every figure and table in the paper's §5 is a grid: a set of training
 * systems crossed with a set of setups (model sizes, sequence lengths,
 * Superchip counts). The SweepEngine evaluates such a grid once,
 * fanning the independent candidate simulations out over a thread pool
 * while keeping the output bit-for-bit identical to a serial run:
 *
 *   - enumeration is serial (a cheap memory screen plus each system's
 *     expansion hook) and numbers every simulation of a cell; a work
 *     unit is one (cell, candidate) pair, where a SuperOffload
 *     candidate carries its retained-bucket count, so each point of its
 *     §4.3 grid is a unit of its own,
 *   - each result is folded into its cell's CellLead as it lands, under
 *     a per-cell lock. The fold is a total order on (score, enumeration
 *     index), so the winner is the first-wins argmax in enumeration
 *     order whatever order the workers finish in, and a losing result
 *     is freed at once.
 *
 * Repeated cells — benches often evaluate the same baseline at the same
 * point for several figures, and scale searches probe the same setups
 * while bisecting — are memoized by a value fingerprint of the setup,
 * so each distinct simulation runs once per engine.
 */
#ifndef SO_RUNTIME_SWEEP_H
#define SO_RUNTIME_SWEEP_H

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/system.h"

namespace so {
class JsonWriter;
class ThreadPool;
} // namespace so

namespace so::runtime {

/** Configuration of one SweepEngine. */
struct SweepOptions
{
    /** Worker threads for simulations; 0 = hardware concurrency. */
    std::size_t jobs = 1;
    /** Log one line per run() batch (cells, simulations, timing). */
    bool progress = false;
    /** Sweep name used in progress lines and the JSON document. */
    std::string name;
};

/** One grid point: a system evaluated on a setup. */
struct SweepCell
{
    const TrainingSystem *system = nullptr;
    TrainSetup setup;
    /** Caller-chosen label carried into the JSON record. */
    std::string tag;
    /** Filled by run(). */
    IterationResult result;
    bool evaluated = false;
    /** True when the result came from the memoization cache. */
    bool from_cache = false;
};

/**
 * Declares a grid of cells, evaluates them (in parallel when jobs > 1),
 * and exports the records as JSON.
 *
 * Systems are referenced, not copied: every system passed to add() or
 * evaluate() must outlive the engine (the cache keys include the system
 * object's identity). Determinism guarantee: for a fixed sequence of
 * add()/run()/evaluate() calls, every result is bit-identical
 * regardless of the jobs count.
 */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepOptions options = {});
    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Declare one cell; returns its index. Evaluation is deferred. */
    std::size_t add(const TrainingSystem &system, TrainSetup setup,
                    std::string tag = "");

    /** Evaluate all cells added since the last run(). */
    void run();

    /** All declared cells, in add() order. */
    const std::vector<SweepCell> &cells() const { return cells_; }

    /** Result of cell @p index; the cell must have been run. */
    const IterationResult &result(std::size_t index) const;

    /**
     * Evaluate one setup immediately (memoized, and parallel across the
     * setup's candidates when jobs > 1). This is the entry point for
     * sequential searches — scale bisection probes — that need each
     * answer before choosing the next setup.
     */
    IterationResult evaluate(const TrainingSystem &system,
                             const TrainSetup &setup);

    /** Resolved worker count (options.jobs, or hardware concurrency). */
    std::size_t jobs() const { return jobs_; }

    std::size_t cacheHits() const { return hits_; }
    std::size_t cacheMisses() const { return misses_; }

    /**
     * The sweep as one JSON document:
     * {sweep, jobs, cache_hits, cache_misses, cells:[{tag, system,
     * setup, result}]}.
     */
    std::string json() const;

    /** Write json() to @p path. @fatal when it cannot be written in full. */
    void writeJson(const std::string &path) const;

    /**
     * Emit the cells as one JSON array value into an in-progress
     * document (for harnesses embedding the sweep in a larger doc).
     */
    void writeCells(JsonWriter &json) const;

  private:
    /** Enumerate/simulate/select one cell, using the pool when enabled. */
    IterationResult evaluateCell(const TrainingSystem &system,
                                 const TrainSetup &setup);

    /** Value fingerprint of (system identity, every setup field). */
    static std::string fingerprint(const TrainingSystem &system,
                                   const TrainSetup &setup);

    ThreadPool &pool();

    SweepOptions options_;
    std::size_t jobs_ = 1;
    std::vector<SweepCell> cells_;
    /** First cell index not yet evaluated by run(). */
    std::size_t next_unrun_ = 0;
    std::unordered_map<std::string, IterationResult> cache_;
    std::size_t hits_ = 0;
    std::size_t misses_ = 0;
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace so::runtime

#endif // SO_RUNTIME_SWEEP_H
