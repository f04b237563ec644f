/**
 * @file
 * Reproduces Table 3: Adam latency for PT-CPU (unfused multi-pass),
 * CPU-Adam (the fused SIMD update on one thread), and GraceAdam (the
 * same fused SIMD update over cache-sized blocks that the pool's
 * workers claim), with *real kernel executions* on this host.
 *
 * The paper measures 1B-8B parameters on a 72-core Grace; this machine
 * is smaller, so the kernels run at scaled sizes and the table also
 * reports the projected Grace-CPU times from the calibrated model for
 * the paper's sizes. What must (and does) carry over from the real
 * measurements is the ordering and the rough speedup ratios.
 *
 * PT-CPU and CPU-Adam run on one thread; GraceAdam runs on a pool of
 * every core. The headers name each kernel's thread count (the pool
 * size is read at run time), so the GraceAdam ratios say how much of
 * the gap is threads.
 */
#include <chrono>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "hw/presets.h"
#include "optim/adam.h"

namespace {

using Clock = std::chrono::steady_clock;

double
timeKernel(const std::function<void(std::int64_t)> &step)
{
    // One warm-up, then enough repetitions for >= 0.25 s of runtime.
    step(1);
    const auto start = Clock::now();
    std::int64_t reps = 0;
    double elapsed = 0.0;
    do {
        step(2 + reps);
        ++reps;
        elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
    } while (elapsed < 0.25 && reps < 1000);
    return elapsed / static_cast<double>(reps);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace so;
    bench::Harness harness(
        argc, argv, "Table 3",
        "Adam step latency: PT-CPU vs CPU-Adam vs "
        "GraceAdam (real kernels)",
        "on Grace: 0.289 / 0.098 / 0.082 s per 1B params — "
        "GraceAdam >3x faster than PT-CPU, ~1.36x over "
        "CPU-Adam");

    const optim::AdamConfig cfg;
    ThreadPool pool;
    const std::string grace_threads =
        "GraceAdam " + std::to_string(pool.threadCount()) + "T";

    Table &measured =
        harness.table("Table 3a: measured on this host (real kernels)");
    measured.setHeader({"#elements", "PT-CPU 1T (ms)", "CPU-Adam 1T (ms)",
                        grace_threads + " (ms)",
                        "PT-CPU 1T/" + grace_threads,
                        "CPU-Adam 1T/" + grace_threads});

    for (std::size_t n : {1u << 20, 1u << 22, 1u << 24, 1u << 25}) {
        std::vector<float> p(n, 1.0f), m(n, 0.0f), v(n, 0.0f),
            g(n, 0.01f);
        const double t_naive = timeKernel([&](std::int64_t step) {
            optim::adamStepNaive(cfg, step, p.data(), m.data(), v.data(),
                                 g.data(), n);
        });
        const double t_fused = timeKernel([&](std::int64_t step) {
            optim::adamStepFused(cfg, step, p.data(), m.data(), v.data(),
                                 g.data(), n);
        });
        const double t_grace = timeKernel([&](std::int64_t step) {
            optim::adamStepGrace(cfg, step, p.data(), m.data(), v.data(),
                                 g.data(), n, &pool);
        });
        measured.addRow({std::to_string(n),
                         Table::num(t_naive * 1e3, 2),
                         Table::num(t_fused * 1e3, 2),
                         Table::num(t_grace * 1e3, 2),
                         Table::num(t_naive / t_grace, 2),
                         Table::num(t_fused / t_grace, 2)});
    }
    measured.print();

    // Projection onto Grace via the calibrated DDR-bandwidth model.
    const hw::CpuSpec grace = hw::gh200(480.0 * kGB).cpu;
    Table &projected =
        harness.table("Table 3b: projected Grace-CPU latency (s), "
                      "calibrated model");
    projected.setHeader({"#Parameter", "PT-CPU", "CPU-Adam",
                         "GraceAdam"});
    for (double billions : {1.0, 2.0, 4.0, 8.0}) {
        const double params = billions * 1e9;
        projected.addRow(
            {Table::num(billions, 0) + " billion",
             Table::num(grace.adamStepTime(params, hw::AdamImpl::Naive),
                        3),
             Table::num(grace.adamStepTime(params, hw::AdamImpl::CpuAdam),
                        3),
             Table::num(
                 grace.adamStepTime(params, hw::AdamImpl::GraceAdam),
                 3)});
    }
    projected.print();
    return harness.finish();
}
