/**
 * @file
 * The pre-sizing convention (docs/SWEEP.md): a system reserves its task
 * graph from the counts its emission loop implies. Across the shapes of
 * SuperOffload's and HyperOffload's graphs, each reservation must cover
 * what the loop emits (the arrays never grow) and exceed it by at most
 * 25% (no rough upper bound left standing).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/superoffload.h"
#include "runtime/builder.h"
#include "runtime/graph_placement.h"

namespace so::core {
namespace {

using runtime::IterBuilder;
using runtime::SearchCandidate;
using runtime::TrainSetup;

TrainSetup
setupFor(const char *model, std::uint32_t chips, std::uint32_t batch)
{
    TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(chips);
    setup.model = model::modelPreset(model);
    setup.global_batch = batch;
    setup.seq = 1024;
    return setup;
}

/** Capacity covers the emitted count and exceeds it by at most 25%. */
void
expectTightReservation(const sim::TaskGraph &graph, const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_GE(graph.taskCapacity(), graph.taskCount());
    EXPECT_LE(static_cast<double>(graph.taskCapacity()),
              1.25 * static_cast<double>(graph.taskCount()));
    EXPECT_GE(graph.edgeCapacity(), graph.edgeCount());
    EXPECT_LE(static_cast<double>(graph.edgeCapacity()),
              1.25 * static_cast<double>(graph.edgeCount()));
}

/** The micro-batch candidates of @p setup at accumulation 1 and 4. */
std::vector<SearchCandidate>
accumulations(const TrainSetup &setup, std::uint32_t variant)
{
    std::vector<SearchCandidate> out;
    for (std::uint32_t accum : {1u, 4u}) {
        SearchCandidate cand;
        cand.accum_steps = accum;
        cand.micro_batch = setup.perGpuBatch() / accum;
        cand.variant = variant;
        out.push_back(cand);
    }
    return out;
}

TEST(PreSizing, SuperOffloadReservesWhatItsLoopEmits)
{
    std::size_t built = 0;
    for (const TrainSetup &setup :
         {setupFor("5B", 1, 8), setupFor("13B", 4, 32)}) {
        for (int flags = 0; flags < 8; ++flags) {
            SuperOffloadOptions opts;
            opts.stv = (flags & 1) != 0;
            opts.sac = (flags & 2) != 0;
            opts.repartition = (flags & 4) != 0;
            const SuperOffloadSystem sys(opts);
            for (WeightPlacement placement :
                 {WeightPlacement::Stationary, WeightPlacement::Flow}) {
                const auto variant = static_cast<std::uint32_t>(placement);
                for (SearchCandidate cand : accumulations(setup, variant)) {
                    // n = 0, the grid's middle and n_max (all 0 with
                    // repartitioning off).
                    std::vector<std::uint32_t> grid;
                    for (const SearchCandidate &c :
                         sys.enumerateCandidates(setup))
                        if (c.variant == variant)
                            grid.push_back(c.retained_buckets);
                    ASSERT_FALSE(grid.empty());
                    for (std::uint32_t n :
                         {grid.front(), grid[grid.size() / 2],
                          grid.back()}) {
                        cand.retained_buckets = n;
                        IterBuilder builder(setup);
                        sys.buildGraph(builder, setup, cand);
                        expectTightReservation(
                            builder.graph(),
                            setup.model.name + " flags=" +
                                std::to_string(flags) + " " +
                                std::string(placementName(placement)) +
                                " accum=" +
                                std::to_string(cand.accum_steps) +
                                " n=" + std::to_string(n));
                        ++built;
                    }
                }
            }
        }
    }
    EXPECT_EQ(built, 2u * 8u * 2u * 2u * 3u);
}

TEST(PreSizing, HyperOffloadReservesWhatItsLoopEmits)
{
    const runtime::GraphPlacementSystem sys;
    bool partial_hbm = false;
    bool all_streamed = false;
    bool spilled = false;
    for (const TrainSetup &setup :
         {setupFor("5B", 1, 8), setupFor("30B", 1, 8),
          setupFor("80B", 1, 4), setupFor("50B", 4, 16)}) {
        for (SearchCandidate cand : accumulations(setup, 0)) {
            for (bool ckpt : {false, true}) {
                cand.checkpointing = ckpt;
                IterBuilder builder(setup);
                const runtime::GraphPlacementSystem::Placement place =
                    sys.buildGraph(builder, setup, cand);
                partial_hbm = partial_hbm ||
                              (place.hbm_layers > 0 &&
                               place.hbm_layers < setup.model.layers);
                all_streamed = all_streamed || place.hbm_layers == 0;
                spilled = spilled || place.nvme_layers > 0;
                expectTightReservation(
                    builder.graph(),
                    setup.model.name + " chips=" +
                        std::to_string(setup.cluster.totalSuperchips()) +
                        " accum=" + std::to_string(cand.accum_steps) +
                        " ckpt=" + std::to_string(ckpt) +
                        " hbm=" + std::to_string(place.hbm_layers) +
                        " nvme=" + std::to_string(place.nvme_layers));
            }
        }
    }
    // The shapes above reach every branch of the emission loop.
    EXPECT_TRUE(partial_hbm);
    EXPECT_TRUE(all_streamed);
    EXPECT_TRUE(spilled);
}

} // namespace
} // namespace so::core
