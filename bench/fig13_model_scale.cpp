/**
 * @file
 * Reproduces Fig. 13: the largest trainable model per system on 1, 4,
 * and 16 Superchips, found by binary-searching depth across the
 * Appendix-A hidden sizes.
 */
#include <vector>

#include "bench_util.h"
#include "core/superoffload.h"
#include "runtime/registry.h"
#include "runtime/scale.h"

int
main(int argc, char **argv)
{
    using namespace so;
    bench::Harness harness(
        argc, argv, "Fig. 13", "Largest trainable model",
        "1 chip: DDP 3.5B / ZeRO-Offload 15B / SuperOffload "
        "25B; 16 chips: SuperOffload 200B = 57x DDP, 10x "
        "ZeRO-2/ZeRO-Offload, 4.4x Megatron, 4.5x ZeRO-3");

    core::SuperOffloadSystem so_sys;
    const char *names[] = {"ddp",   "megatron",     "zero2",
                           "zero3", "zero-offload", "zero-infinity"};

    Table &table =
        harness.table("Fig. 13: largest trainable model (B params)");
    table.setHeader({"system", "1x GH200", "4x GH200", "16x GH200"});

    std::vector<runtime::SystemPtr> baselines;
    for (const char *name : names)
        baselines.push_back(runtime::makeBaseline(name));

    auto scale_row = [&](const std::string &label,
                         const runtime::TrainingSystem &sys) {
        std::vector<std::string> row{label};
        for (std::uint32_t chips : {1u, 4u, 16u}) {
            runtime::TrainSetup setup;
            setup.cluster = hw::gh200ClusterOf(chips);
            setup.global_batch = 8 * chips;
            setup.seq = 1024;
            const auto res = runtime::largestTrainableModel(sys, setup);
            row.push_back(res.any_feasible
                              ? Table::num(res.max_params / 1e9, 1)
                              : "-");
        }
        table.addRow(row);
    };

    for (const runtime::SystemPtr &sys : baselines)
        scale_row(sys->name(), *sys);
    scale_row(so_sys.name(), so_sys);
    table.print();
    return harness.finish();
}
