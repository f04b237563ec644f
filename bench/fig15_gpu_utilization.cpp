/**
 * @file
 * Reproduces Fig. 15: SuperOffload's near-complete GPU utilization on
 * the same setting as Fig. 4, with the simulated iteration timeline.
 */
#include <cstdio>

#include "bench_util.h"
#include "common/units.h"
#include "core/superoffload.h"
#include "runtime/registry.h"
#include "runtime/scale.h"

int
main(int argc, char **argv)
{
    using namespace so;
    bench::Harness harness(
        argc, argv, "Fig. 15", "SuperOffload GPU utilization",
        "near-complete GPU utilization, idle periods "
        "effectively eliminated (vs 40-50% idle in Fig. 4)");

    core::SuperOffloadSystem so_sys;
    auto zo = runtime::makeBaseline("zero-offload");

    // Same setting as Fig. 4: largest ZeRO-Offload-feasible model.
    runtime::TrainSetup setup;
    setup.cluster = hw::gh200Single();
    setup.global_batch = 8;
    setup.seq = 1024;
    const auto scale = runtime::largestTrainableModel(*zo, setup);
    setup.model = scale.config;

    const std::size_t zo_cell = harness.add(*zo, setup, "fig4");
    const std::size_t so_cell = harness.add(so_sys, setup, "fig15");
    harness.run();
    const auto &zo_res = harness.result(zo_cell);
    const auto &so_res = harness.result(so_cell);

    Table &table = harness.table("Fig. 15: utilization at " +
                                 formatParams(scale.max_params) +
                                 ", batch 8");
    table.setHeader({"system", "GPU busy %", "GPU idle %", "iter (s)",
                     "TFLOPS"});
    auto add = [&](const std::string &name,
                   const runtime::IterationResult &res) {
        table.addRow({name, Table::num(100.0 * res.gpu_utilization, 1),
                      Table::num(100.0 * (1.0 - res.gpu_utilization), 1),
                      Table::num(res.iter_time, 3),
                      Table::num(res.tflopsPerGpu(), 1)});
    };
    add("ZeRO-Offload (Fig. 4)", zo_res);
    add("SuperOffload (Fig. 15)", so_res);
    table.print();

    std::printf("SuperOffload steady-state timeline (3 simulated "
                "iterations; # = busy):\n%s\n", so_res.gantt.c_str());
    return harness.finish();
}
