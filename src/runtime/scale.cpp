#include "runtime/scale.h"

#include <array>

#include "common/logging.h"

namespace so::runtime {

ScaleResult
largestTrainableModel(const TrainingSystem &system,
                      const TrainSetup &setup_template,
                      std::uint32_t max_layers)
{
    // Hidden sizes used across the paper's Appendix-A configurations.
    constexpr std::array<std::uint32_t, 6> kHiddens = {
        2048, 2304, 3072, 4096, 8192, 16384};

    ScaleResult best;
    for (std::uint32_t hidden : kHiddens) {
        auto feasible_at = [&](std::uint32_t layers) {
            TrainSetup setup = setup_template;
            setup.model = model::makeConfig(
                std::to_string(hidden) + "h" + std::to_string(layers) +
                    "L",
                layers, hidden);
            return !system.enumerateCandidates(setup).empty();
        };
        if (!feasible_at(1))
            continue;
        // Binary search the largest feasible layer count. Feasibility
        // is monotone in depth for every system (more layers only adds
        // memory), so the bisection is valid.
        std::uint32_t lo = 1, hi = max_layers;
        if (feasible_at(max_layers)) {
            lo = max_layers;
        } else {
            while (hi - lo > 1) {
                const std::uint32_t mid = lo + (hi - lo) / 2;
                if (feasible_at(mid))
                    lo = mid;
                else
                    hi = mid;
            }
        }
        const model::ModelConfig cfg = model::makeConfig(
            std::to_string(hidden) + "h" + std::to_string(lo) + "L", lo,
            hidden);
        if (!best.any_feasible || cfg.params() > best.max_params) {
            best.any_feasible = true;
            best.max_params = cfg.params();
            best.config = cfg;
        }
    }
    return best;
}

std::uint32_t
maxSequenceLength(const TrainingSystem &system,
                  const TrainSetup &setup_template,
                  std::uint32_t granularity, std::uint32_t max_seq)
{
    SO_ASSERT(granularity >= 1, "granularity must be positive");
    SO_ASSERT(max_seq >= granularity, "max_seq below granularity");
    auto feasible_at = [&](std::uint32_t seq) {
        TrainSetup setup = setup_template;
        setup.seq = seq;
        return !system.enumerateCandidates(setup).empty();
    };
    if (!feasible_at(granularity))
        return 0;

    // Exponential probe to bracket the OOM cliff... (feasibility is
    // monotone in sequence length: longer sequences only add memory).
    std::uint32_t lo = granularity;
    std::uint32_t hi = lo;
    while (hi < max_seq) {
        hi = std::min(max_seq, hi * 2);
        if (!feasible_at(hi))
            break;
        lo = hi;
    }
    if (lo == hi)
        return lo; // Feasible all the way to max_seq.

    // ...then bisect to the granularity.
    while (hi - lo > granularity) {
        const std::uint32_t mid =
            lo + (hi - lo) / 2 / granularity * granularity;
        if (mid == lo)
            break;
        if (feasible_at(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo;
}

} // namespace so::runtime
