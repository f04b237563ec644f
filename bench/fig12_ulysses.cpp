/**
 * @file
 * Reproduces Fig. 12: supported sequence lengths and MFU for vanilla
 * Ulysses vs SuperOffload-Ulysses, 13B and 30B models on 4 and 8
 * Superchips.
 */
#include <vector>

#include "bench_util.h"
#include "core/superoffload_ulysses.h"
#include "runtime/registry.h"
#include "runtime/scale.h"

int
main(int argc, char **argv)
{
    using namespace so;
    bench::Harness harness(
        argc, argv, "Fig. 12",
        "Sequence scaling: Ulysses vs SuperOffload-Ulysses",
        "SuperOffload-Ulysses trains sequences up to 8x "
        "longer; 13B reaches 1M tokens on 8 GH200 at 55% MFU");

    auto ulysses = runtime::makeBaseline("ulysses");
    core::SuperOffloadUlyssesSystem sou;
    const std::vector<const runtime::TrainingSystem *> systems = {
        ulysses.get(), &sou};

    const std::vector<const char *> models = {"13B", "30B"};
    const std::vector<std::uint32_t> chip_counts = {4u, 8u};
    const std::vector<std::uint32_t> seqs_k = {32u,  64u,  128u, 256u,
                                               512u, 768u, 1024u};

    for (const char *m : models) {
        for (std::uint32_t chips : chip_counts) {
            for (std::uint32_t k : seqs_k) {
                runtime::TrainSetup setup;
                setup.cluster = hw::gh200ClusterOf(chips);
                setup.model = model::modelPreset(m);
                setup.global_batch = 1;
                setup.seq = k * 1024;
                for (const runtime::TrainingSystem *sys : systems)
                    harness.add(*sys, setup,
                                std::string(m) + "/" +
                                    std::to_string(chips) + "x");
            }
        }
    }
    harness.run();

    std::size_t cell = 0;
    for (const char *m : models) {
        for (std::uint32_t chips : chip_counts) {
            const double peak =
                hw::gh200ClusterOf(chips).node.superchip.gpu.peak_flops;
            Table &table =
                harness.table(std::string("Fig. 12: ") + m + " on " +
                              std::to_string(chips) + "x GH200 (MFU %)");
            table.setHeader({"seq", "Ulysses", "SuperOffload-Ulysses"});
            for (std::uint32_t k : seqs_k) {
                std::vector<std::string> row = {std::to_string(k) + "k"};
                for (std::size_t s = 0; s < systems.size(); ++s) {
                    const auto &res = harness.result(cell++);
                    row.push_back(
                        res.feasible
                            ? Table::num(100.0 * res.mfuAgainst(peak), 1)
                            : "OOM");
                }
                table.addRow(std::move(row));
            }
            // The OOM cliffs, bisected to 32k granularity by the
            // memory screen alone.
            runtime::TrainSetup probe;
            probe.cluster = hw::gh200ClusterOf(chips);
            probe.model = model::modelPreset(m);
            probe.global_batch = 1;
            const std::uint32_t ul_max =
                runtime::maxSequenceLength(*ulysses, probe);
            const std::uint32_t sou_max =
                runtime::maxSequenceLength(sou, probe);
            table.addRow({"max seq",
                          ul_max ? std::to_string(ul_max / 1024) + "k"
                                 : "none",
                          sou_max ? std::to_string(sou_max / 1024) + "k"
                                  : "none"});
            table.print();
        }
    }
    return harness.finish();
}
