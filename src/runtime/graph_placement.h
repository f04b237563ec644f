/**
 * @file
 * Graph-driven tier placement (HyperOffload-style).
 *
 * HyperOffload's idea is to stop treating offload targets as a binary
 * (everything on the host, or everything on the drive) and instead walk
 * the training dataflow graph, placing each object in the hottest tier
 * with room, coldest-reuse objects first. This system applies that at
 * layer granularity over the hw::MemoryHierarchy:
 *
 *  - Forward/backward touch layers in order, so the *first* layers are
 *    the ones reused soonest after the optimizer (the next forward
 *    starts at layer 0): any HBM slack left after activations pins a
 *    prefix of layers' fp16 weights device-resident, skipping their
 *    per-pass fetch entirely.
 *  - Gradients materialize last-to-first during backward, so the *last*
 *    layers have the longest lead time between "grads ready" and "state
 *    needed": when host DRAM cannot hold all optimizer states, a suffix
 *    of layers spills to NVMe, where the staging latency hides behind
 *    the remaining backward.
 *
 * The placement is deterministic from the setup (no search dimension):
 * tierBytes and simulate derive it from the same arithmetic, so the fit
 * checks, diagnostics, and the schedule always agree.
 */
#ifndef SO_RUNTIME_GRAPH_PLACEMENT_H
#define SO_RUNTIME_GRAPH_PLACEMENT_H

#include <cstdint>

#include "runtime/system.h"

namespace so::runtime {

class IterBuilder;

/** Layer-granular, hierarchy-aware offload placement. */
class GraphPlacementSystem : public TrainingSystem
{
  public:
    std::string
    name() const override
    {
        return "HyperOffload";
    }

    /** Deterministic placement derived from setup + hierarchy. */
    struct Placement
    {
        /** Layers whose fp16 weights stay resident in HBM (prefix). */
        std::uint32_t hbm_layers = 0;
        /** Layers whose optimizer states spill to NVMe (suffix). */
        std::uint32_t nvme_layers = 0;
    };

    /**
     * Compute the placement for @p cand: NVMe spill from the DDR
     * overflow, HBM residency from the device slack left by @p cand's
     * activations.
     */
    Placement placement(const TrainSetup &setup,
                        const SearchCandidate &cand) const;

    /**
     * Emit @p cand's iteration into @p builder, after reserving exactly
     * the tasks and edges the emission adds, and return the placement
     * it used. simulate() schedules what this builds; tests read the
     * graph's pre-sizing.
     */
    Placement buildGraph(IterBuilder &builder, const TrainSetup &setup,
                         const SearchCandidate &cand) const;

  protected:
    double gpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const override;
    double cpuBytes(const TrainSetup &setup,
                    const SearchCandidate &cand) const override;
    double nvmeBytes(const TrainSetup &setup,
                     const SearchCandidate &cand) const override;
    IterationResult simulate(const TrainSetup &setup,
                             const SearchCandidate &cand) const override;

  private:
    /** Per-rank bytes of one layer's full model-state share. */
    double layerShare(const TrainSetup &setup) const;
};

} // namespace so::runtime

#endif // SO_RUNTIME_GRAPH_PLACEMENT_H
