/**
 * @file
 * Capacity searches (paper Figs. 12 and 13): the largest model, and the
 * longest sequence, a system can train on a given cluster.
 *
 * Both ask only whether a probe fits, so they ask the memory screen
 * (TrainingSystem::enumerateCandidates) and simulate nothing: a setup
 * is feasible exactly when the screen leaves at least one candidate.
 */
#ifndef SO_RUNTIME_SCALE_H
#define SO_RUNTIME_SCALE_H

#include "runtime/system.h"

namespace so::runtime {

/** Result of a largest-model search. */
struct ScaleResult
{
    /** Largest trainable parameter count (0 if nothing fits). */
    double max_params = 0.0;
    /** The configuration achieving it. */
    model::ModelConfig config;
    bool any_feasible = false;
};

/**
 * Find the largest trainable model for @p system on @p setup_template
 * (its model field is ignored). Searches the Appendix-A hidden sizes,
 * binary-searching the layer count for each, and keeps the largest
 * feasible parameter count — mirroring how the paper's Fig. 13 varies
 * depth/width to find the capacity limit.
 * @param max_layers upper bound of the per-hidden-size layer search.
 */
ScaleResult largestTrainableModel(const TrainingSystem &system,
                                  const TrainSetup &setup_template,
                                  std::uint32_t max_layers = 256);

/**
 * Largest feasible sequence length for @p system on @p setup_template
 * (its seq field is ignored), searched in multiples of @p granularity
 * tokens by exponential probing plus bisection — the quantity on the
 * x-axis of the paper's Fig. 12. Returns 0 when even @p granularity
 * does not fit.
 * @param max_seq upper bound of the search (default 4M tokens).
 */
std::uint32_t maxSequenceLength(const TrainingSystem &system,
                                const TrainSetup &setup_template,
                                std::uint32_t granularity = 32 * 1024,
                                std::uint32_t max_seq = 4u << 20);

} // namespace so::runtime

#endif // SO_RUNTIME_SCALE_H
