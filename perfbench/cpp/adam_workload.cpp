/**
 * @file
 * adam-step: optim::adamStepGrace on the library's ThreadPool over
 * seeded fp32 buffers, the real-numerics kernel behind Table 3. Every
 * step is checked against optim::adamStepNaive on a seeded window of
 * the buffers, with the tolerances of tests/optim/test_adam.cpp.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unistd.h>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "optim/adam.h"

namespace perfbench {

namespace {

/** Elements per step: 8 Mi fp32 values, 128 MiB over param/m/v/grad. */
constexpr std::size_t kElems = std::size_t{1} << 23;
/** Elements per step checked against the naive reference. */
constexpr std::size_t kWindow = 1024;
/** Steps per window (about a second) of the time and memory medians. */
constexpr std::size_t kStepsPerWindow = 100;

struct AdamState
{
    so::optim::AdamConfig cfg;
    std::vector<float> p, m, v, g;
    std::unique_ptr<so::ThreadPool> pool;
    std::int64_t step = 0;
    so::Rng rng{0};
};

std::unique_ptr<AdamState>
setupAdam(const Options &opt, std::size_t threads)
{
    auto state = std::make_unique<AdamState>();
    state->cfg.lr = 1e-3f;
    state->cfg.weight_decay = 0.01f;
    state->rng = so::Rng(opt.seed);
    state->p.resize(kElems);
    state->g.resize(kElems);
    state->m.assign(kElems, 0.0f);
    state->v.assign(kElems, 0.0f);
    for (std::size_t i = 0; i < kElems; ++i) {
        state->p[i] = static_cast<float>(state->rng.uniform(-1.0, 1.0));
        state->g[i] = static_cast<float>(state->rng.uniform(-1e-2, 1e-2));
    }
    state->pool = std::make_unique<so::ThreadPool>(threads);
    for (int i = 0; i < 3; ++i) {
        ++state->step;
        so::optim::adamStepGrace(state->cfg, state->step, state->p.data(),
                                 state->m.data(), state->v.data(),
                                 state->g.data(), kElems,
                                 state->pool.get());
    }
    return state;
}

/**
 * One checked GraceAdam step. Returns the step's wall time; @p ok is
 * false when the seeded window disagrees with the naive kernel.
 */
double
checkedStep(AdamState &s, bool &ok, Ledger *ledger)
{
    auto t0 = Clock::now();
    const std::size_t off = s.rng.below(kElems - kWindow);
    std::vector<float> p(s.p.begin() + off, s.p.begin() + off + kWindow);
    std::vector<float> m(s.m.begin() + off, s.m.begin() + off + kWindow);
    std::vector<float> v(s.v.begin() + off, s.v.begin() + off + kWindow);
    ++s.step;
    double check_s = since(t0);

    t0 = Clock::now();
    so::optim::adamStepGrace(s.cfg, s.step, s.p.data(), s.m.data(),
                             s.v.data(), s.g.data(), kElems, s.pool.get());
    const double step_s = since(t0);

    t0 = Clock::now();
    so::optim::adamStepNaive(s.cfg, s.step, p.data(), m.data(), v.data(),
                             s.g.data() + off, kWindow);
    ok = true;
    for (std::size_t i = 0; i < kWindow; ++i) {
        ok = ok && std::abs(p[i] - s.p[off + i]) <= 4e-6f &&
             std::abs(m[i] - s.m[off + i]) <= 1e-6f &&
             std::abs(v[i] - s.v[off + i]) <= 1e-7f;
    }
    check_s += since(t0);
    if (ledger) {
        ledger->add("optim.adam_grace", step_s);
        ledger->add("bench.check", check_s);
    }
    return step_s;
}

std::string
cacheProperty(int name)
{
    const long bytes = sysconf(name);
    return bytes > 0 ? format("%.0f KiB", static_cast<double>(bytes) / 1024.0)
                     : std::string("unknown");
}

} // namespace

Report
runAdamStep(const Options &opt)
{
    Report report;
    const std::size_t threads = workerCount();

    std::vector<double> setup_times;
    std::unique_ptr<AdamState> state;
    for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
        state.reset();
        const auto t0 = Clock::now();
        state = setupAdam(opt, threads);
        setup_times.push_back(since(t0));
    }

    report.property("elements per step", static_cast<double>(kElems));
    report.property("buffer bytes (param, m, v, grad fp32)",
                    format("%.0f MiB", 16.0 * kElems / (1 << 20)));
    report.property("L2 cache (per core)",
                    cacheProperty(_SC_LEVEL2_CACHE_SIZE));
    report.property("L3 cache", cacheProperty(_SC_LEVEL3_CACHE_SIZE));
    report.property("threads", static_cast<double>(threads));
    report.property("checked window per step",
                    static_cast<double>(kWindow));

    const double budget = opt.trace ? opt.seconds / 2.0 : opt.seconds;
    std::vector<double> latencies, window_peaks;
    double measured = 0.0;
    resetPeakRss();
    while (measured < budget || latencies.empty()) {
        bool ok = true;
        latencies.push_back(checkedStep(*state, ok, nullptr));
        measured += latencies.back();
        report.failed += !ok;
        if (latencies.size() % kStepsPerWindow == 0) {
            window_peaks.push_back(peakRssMiB());
            resetPeakRss();
        }
    }
    window_peaks.push_back(peakRssMiB());
    const double peak_rss = median(window_peaks);
    report.attempted = static_cast<std::int64_t>(latencies.size());
    report.property("steps", static_cast<double>(latencies.size()));

    if (opt.trace) {
        Layers layers;
        layers.workers = threads;
        layers.untraced_wall = measured;
        layers.ops = static_cast<std::int64_t>(latencies.size());
        const std::size_t fused_steps =
            std::max<std::size_t>(2, latencies.size() / 8);
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < latencies.size(); ++i) {
            bool ok = true;
            checkedStep(*state, ok, &layers.ledger);
            report.failed += !ok;
        }
        for (std::size_t i = 0; i < fused_steps; ++i) {
            ++state->step;
            const auto t1 = Clock::now();
            so::optim::adamStepFused(state->cfg, state->step,
                                     state->p.data(), state->m.data(),
                                     state->v.data(), state->g.data(),
                                     kElems);
            layers.ledger.add("optim.adam_fused", since(t1));
        }
        layers.traced_wall = since(t0);
        layers.adam_elems = static_cast<double>(latencies.size() * kElems);
        layers.adam_fused_elems = static_cast<double>(fused_steps * kElems);
        report.attempted += static_cast<std::int64_t>(latencies.size());
        reportLayers(layers, report);
        return report;
    }

    std::vector<Window> steps;
    for (double lat : latencies)
        steps.push_back(Window{{lat}, lat, 1.0});
    report.line("op = one GraceAdam step over the whole buffer; a window "
                "is " + std::to_string(kStepsPerWindow) + " steps");
    endToEnd(report, median(setup_times),
             groupWindows(steps, kStepsPerWindow), peak_rss);
    for (const Report::Metric &m : report.metrics) {
        if (m.name == "ops_per_s")
            report.line("adam_gelems_per_s " +
                        format("%.4f", m.value * kElems / 1e9) + " Gelem/s");
    }
    return report;
}

} // namespace perfbench
