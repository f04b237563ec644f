/**
 * @file
 * Google-benchmark microbenchmarks of the real numeric kernels: the
 * three Adam implementations (the substance behind Table 3), binary16
 * casting (behind Fig. 9), and the validation-path scans (behind §4.4).
 */
#include <benchmark/benchmark.h>

#include <vector>

#include "common/thread_pool.h"
#include "optim/adam.h"
#include "optim/half.h"
#include "optim/kernels.h"

namespace {

using namespace so;

struct AdamBuffers
{
    std::vector<float> p, m, v, g;

    explicit AdamBuffers(std::size_t n)
        : p(n, 1.0f), m(n, 0.0f), v(n, 0.0f), g(n, 0.01f)
    {
    }
};

void
BM_AdamNaive(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    AdamBuffers buf(n);
    std::int64_t step = 0;
    for (auto _ : state) {
        optim::adamStepNaive(optim::AdamConfig{}, ++step, buf.p.data(),
                             buf.m.data(), buf.v.data(), buf.g.data(), n);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamNaive)->Arg(1 << 18)->Arg(1 << 22);

void
BM_AdamFused(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    AdamBuffers buf(n);
    std::int64_t step = 0;
    for (auto _ : state) {
        optim::adamStepFused(optim::AdamConfig{}, ++step, buf.p.data(),
                             buf.m.data(), buf.v.data(), buf.g.data(), n);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamFused)->Arg(1 << 18)->Arg(1 << 22);

void
BM_AdamGrace(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    AdamBuffers buf(n);
    ThreadPool pool;
    std::int64_t step = 0;
    for (auto _ : state) {
        optim::adamStepGrace(optim::AdamConfig{}, ++step, buf.p.data(),
                             buf.m.data(), buf.v.data(), buf.g.data(), n,
                             &pool);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
// The pooled kernels run on worker threads, so items/s must divide by
// wall time, not by this thread's (mostly idle) CPU time.
BENCHMARK(BM_AdamGrace)->Arg(1 << 18)->Arg(1 << 22)->UseRealTime();

void
BM_AdamGraceFp16Fused(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    AdamBuffers buf(n);
    std::vector<optim::Half> shadow(n);
    ThreadPool pool;
    std::int64_t step = 0;
    for (auto _ : state) {
        optim::adamStepGraceFp16(optim::AdamConfig{}, ++step,
                                 buf.p.data(), shadow.data(),
                                 buf.m.data(), buf.v.data(),
                                 buf.g.data(), n, &pool);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamGraceFp16Fused)->Arg(1 << 22)->UseRealTime();

void
BM_AdamInverse(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    AdamBuffers buf(n);
    for (auto _ : state) {
        // Forward + inverse: the STV rollback round trip.
        optim::adamStepFused(optim::AdamConfig{}, 1, buf.p.data(),
                             buf.m.data(), buf.v.data(), buf.g.data(), n);
        optim::adamStepInverse(optim::AdamConfig{}, 1, buf.p.data(),
                               buf.m.data(), buf.v.data(), buf.g.data(),
                               n);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AdamInverse)->Arg(1 << 20);

void
BM_CastToHalf(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> src(n, 1.5f);
    std::vector<optim::Half> dst(n);
    for (auto _ : state)
        optim::castToHalf(src.data(), dst.data(), n);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_CastToHalf)->Arg(1 << 20);

void
BM_CastToFloat(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<optim::Half> src(n, optim::floatToHalf(1.5f));
    std::vector<float> dst(n);
    for (auto _ : state)
        optim::castToFloat(src.data(), dst.data(), n);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * 6);
}
BENCHMARK(BM_CastToFloat)->Arg(1 << 20);

void
BM_L2NormSquared(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> data(n, 0.5f);
    for (auto _ : state)
        benchmark::DoNotOptimize(optim::l2NormSquared(data.data(), n));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * 4);
}
BENCHMARK(BM_L2NormSquared)->Arg(1 << 22);

void
BM_NanInfScan(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    std::vector<float> data(n, 0.5f);
    for (auto _ : state)
        benchmark::DoNotOptimize(optim::hasNanOrInf(data.data(), n));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(n) * 4);
}
BENCHMARK(BM_NanInfScan)->Arg(1 << 22);

} // namespace

BENCHMARK_MAIN();
