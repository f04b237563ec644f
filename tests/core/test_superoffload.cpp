#include "core/superoffload.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/units.h"
#include "hw/constants.h"
#include "runtime/builder.h"
#include "runtime/registry.h"
#include "runtime/sweep.h"

namespace so::core {
namespace {

using runtime::TrainSetup;

TrainSetup
setupFor(const char *model, std::uint32_t chips = 1,
         std::uint32_t batch = 8, std::uint32_t seq = 1024)
{
    TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(chips);
    setup.model = model::modelPreset(model);
    setup.global_batch = batch;
    setup.seq = seq;
    return setup;
}

TEST(SuperOffload, HighThroughputAcrossSizes)
{
    SuperOffloadSystem sys;
    for (const char *m : {"3B", "5B", "10B", "15B", "20B"}) {
        const auto res = sys.run(setupFor(m));
        ASSERT_TRUE(res.feasible) << m;
        EXPECT_GT(res.tflopsPerGpu(), 200.0) << m;
    }
}

TEST(SuperOffload, NearFullGpuUtilization)
{
    // Fig. 15: "SuperOffload achieves near-complete GPU utilization".
    SuperOffloadSystem sys;
    const auto res = sys.run(setupFor("13B"));
    ASSERT_TRUE(res.feasible);
    EXPECT_GT(res.gpu_utilization, 0.95);
}

TEST(SuperOffload, BeatsEveryBaselineOnSingleChip)
{
    SuperOffloadSystem sys;
    const TrainSetup setup = setupFor("5B");
    const double so_tflops = sys.run(setup).tflopsPerGpu();
    for (const char *name :
         {"ddp", "zero-offload", "zero-infinity", "fsdp-offload"}) {
        auto baseline = runtime::makeBaseline(name);
        const auto res = baseline->run(setup);
        if (res.feasible)
            EXPECT_GT(so_tflops, res.tflopsPerGpu()) << name;
    }
}

TEST(SuperOffload, AboutTwiceZeroOffload)
{
    // §5.2: "2x throughput on average (up to 2.5x) compared to
    // ZeRO-Offload".
    SuperOffloadSystem sys;
    auto zo = runtime::makeBaseline("zero-offload");
    double ratio_sum = 0.0;
    int count = 0;
    for (const char *m : {"3B", "5B", "10B", "13B", "15B"}) {
        const TrainSetup setup = setupFor(m);
        const auto so_res = sys.run(setup);
        const auto zo_res = zo->run(setup);
        ASSERT_TRUE(so_res.feasible && zo_res.feasible) << m;
        ratio_sum += so_res.tflopsPerGpu() / zo_res.tflopsPerGpu();
        ++count;
    }
    const double avg = ratio_sum / count;
    EXPECT_GT(avg, 1.7);
    EXPECT_LT(avg, 2.8);
}

TEST(SuperOffload, TrainsTwentyFiveBillionOnOneChip)
{
    // Fig. 13: 25B on a single Superchip.
    SuperOffloadSystem sys;
    EXPECT_TRUE(sys.run(setupFor("25B")).feasible);
    EXPECT_FALSE(sys.run(setupFor("30B")).feasible);
}

TEST(SuperOffload, FiftyBillionOnFourChips)
{
    SuperOffloadSystem sys;
    EXPECT_TRUE(sys.run(setupFor("50B", 4, 16)).feasible);
}

TEST(SuperOffload, TwoHundredBillionOnSixteenChips)
{
    SuperOffloadSystem sys;
    const auto res = sys.run(setupFor("200B", 16, 128));
    ASSERT_TRUE(res.feasible);
    EXPECT_GT(res.tflopsPerGpu(), 100.0);
}

TEST(SuperOffload, AblationOrderingMatchesTable2)
{
    // Each §4 technique must help, with STV the largest single gain.
    const TrainSetup setup = setupFor("5B");
    SuperOffloadOptions opts;
    opts.grace_adam = false;
    opts.sac = false;
    opts.stv = false;
    opts.repartition = false;

    auto tflops = [&](const SuperOffloadOptions &o) {
        SuperOffloadSystem sys(o);
        const auto res = sys.run(setup);
        EXPECT_TRUE(res.feasible);
        return res.tflopsPerGpu();
    };

    const double base = tflops(opts);
    opts.grace_adam = true;
    const double with_grace = tflops(opts);
    opts.sac = true;
    const double with_sac = tflops(opts);
    opts.stv = true;
    const double with_stv = tflops(opts);
    opts.repartition = true;
    const double full = tflops(opts);

    EXPECT_GT(with_grace, base);
    EXPECT_GT(with_sac, with_grace);
    EXPECT_GT(with_stv, with_sac * 1.2); // STV is the big one (+45%).
    EXPECT_GT(full, with_stv);
    // Total speedup in the paper is 2.06x; ours should exceed 1.8x.
    EXPECT_GT(full / base, 1.8);
}

TEST(SuperOffload, BaselineConfigMatchesZeroOffloadBallpark)
{
    // Table 2's all-disabled row "is close to the ZeRO-Offload
    // throughput shown in Fig. 10".
    SuperOffloadOptions opts;
    opts.grace_adam = false;
    opts.sac = false;
    opts.stv = false;
    opts.repartition = false;
    SuperOffloadSystem base(opts);
    auto zo = runtime::makeBaseline("zero-offload");
    const TrainSetup setup = setupFor("5B");
    const double a = base.run(setup).tflopsPerGpu();
    const double b = zo->run(setup).tflopsPerGpu();
    EXPECT_NEAR(a, b, 0.25 * b);
}

TEST(SuperOffload, AdaptivePolicyReportsPlacement)
{
    SuperOffloadSystem sys;
    const auto res = sys.run(setupFor("5B"));
    ASSERT_TRUE(res.feasible);
    EXPECT_NE(res.notes.find("weight-"), std::string::npos);
    EXPECT_NE(res.notes.find("retained="), std::string::npos);
    const auto placement =
        static_cast<WeightPlacement>(static_cast<std::uint32_t>(
            res.extra("placement", -1.0)));
    EXPECT_TRUE(placement == WeightPlacement::Stationary ||
                placement == WeightPlacement::Flow);
}

TEST(SuperOffload, ForcedStationaryStillFeasibleOnMidSizes)
{
    SuperOffloadOptions opts;
    opts.placement = WeightPlacement::Stationary;
    SuperOffloadSystem sys(opts);
    const auto res = sys.run(setupFor("10B"));
    ASSERT_TRUE(res.feasible);
    EXPECT_EQ(res.extra("placement", -1.0),
              static_cast<double>(WeightPlacement::Stationary));
}

TEST(SuperOffload, FlowModeUnlocksLongSequences)
{
    // §4.2's adaptive scenario: at long sequence lengths activation
    // memory dwarfs model states, and only weight-flow leaves enough
    // HBM for the activations. Auto must therefore match Flow.
    SuperOffloadOptions stationary;
    stationary.placement = WeightPlacement::Stationary;
    SuperOffloadOptions flow;
    flow.placement = WeightPlacement::Flow;
    const TrainSetup setup = setupFor("13B", 1, 1, 128 * 1024);
    EXPECT_FALSE(SuperOffloadSystem(stationary).run(setup).feasible);
    EXPECT_TRUE(SuperOffloadSystem(flow).run(setup).feasible);

    SuperOffloadSystem adaptive;
    const auto auto_res = adaptive.run(setup);
    EXPECT_TRUE(auto_res.feasible);
    EXPECT_EQ(auto_res.extra("placement", -1.0),
              static_cast<double>(WeightPlacement::Flow));
}

TEST(SuperOffload, RemoteNumaBindingHurtsThroughput)
{
    // §4.7: mis-bound CPU<->GPU traffic crosses the slow fabric. At
    // mid sizes the STV pipeline prefetches deeply enough to hide even
    // a Slingshot-grade link, so the penalty shows where host traffic
    // exceeds the iteration's compute time (largest trainable model).
    SuperOffloadSystem sys;
    TrainSetup good = setupFor("25B");
    TrainSetup bad = setupFor("25B");
    bad.binding = hw::NumaBinding::Remote;
    const auto g = sys.run(good);
    const auto b = sys.run(bad);
    ASSERT_TRUE(g.feasible && b.feasible);
    EXPECT_GT(g.tflopsPerGpu(), 1.05 * b.tflopsPerGpu());
}

TEST(SuperOffload, TinyBucketsAreCatastrophicWithoutCoalescing)
{
    // The §4.3 ablation: honoring a 1 MiB bucket size literally pays
    // the left side of the Fig. 7 curve plus per-bucket dispatch on
    // every one of ~27k buckets.
    SuperOffloadOptions tiny;
    tiny.bucket_bytes = 1.0 * 1024.0 * 1024.0;
    tiny.coalesce_buckets = false;
    SuperOffloadOptions standard;
    const TrainSetup setup = setupFor("13B");
    const auto bad = SuperOffloadSystem(tiny).run(setup);
    const auto good = SuperOffloadSystem(standard).run(setup);
    ASSERT_TRUE(bad.feasible && good.feasible);
    EXPECT_GT(good.tflopsPerGpu(), 10.0 * bad.tflopsPerGpu());
}

TEST(SuperOffload, CoalescingBoundsTinyBucketDamage)
{
    // The production engine coalesces: a silly requested size ends up
    // within a few percent of the default.
    SuperOffloadOptions tiny;
    tiny.bucket_bytes = 1.0 * 1024.0 * 1024.0;
    tiny.coalesce_buckets = true;
    const TrainSetup setup = setupFor("13B");
    const auto res = SuperOffloadSystem(tiny).run(setup);
    const auto ref = SuperOffloadSystem().run(setup);
    ASSERT_TRUE(res.feasible && ref.feasible);
    EXPECT_GT(res.tflopsPerGpu(), 0.9 * ref.tflopsPerGpu());
}

TEST(SuperOffload, FullyDeterministicAcrossRuns)
{
    // The entire pipeline — placement evaluation, retained-bucket grid
    // search, the DES — must be reproducible bit for bit.
    const TrainSetup setup = setupFor("10B");
    SuperOffloadSystem a, b;
    const auto r1 = a.run(setup);
    const auto r2 = b.run(setup);
    ASSERT_TRUE(r1.feasible && r2.feasible);
    EXPECT_EQ(r1.iter_time, r2.iter_time);
    EXPECT_EQ(r1.gpu_utilization, r2.gpu_utilization);
    EXPECT_EQ(r1.micro_batch, r2.micro_batch);
    EXPECT_EQ(r1.notes, r2.notes);
    EXPECT_EQ(r1.extra("placement", -1.0), r2.extra("placement", -1.0));
    EXPECT_EQ(r1.extra("retained_buckets", -1.0),
              r2.extra("retained_buckets", -1.0));
}

TEST(SuperOffload, TraceCaptureIsOptIn)
{
    SuperOffloadSystem sys;
    TrainSetup plain = setupFor("5B");
    const auto without = sys.run(plain);
    ASSERT_TRUE(without.feasible);
    EXPECT_TRUE(without.trace_json.empty());

    TrainSetup traced = setupFor("5B");
    traced.capture_trace = true;
    const auto with = sys.run(traced);
    ASSERT_TRUE(with.feasible);
    EXPECT_NE(with.trace_json.find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(with.trace_json.find("GPU"), std::string::npos);
}

TEST(SuperOffload, ProfileCaptureAttributesTheSchedule)
{
    SuperOffloadSystem sys;
    TrainSetup plain = setupFor("5B");
    const auto without = sys.run(plain);
    ASSERT_TRUE(without.feasible);
    EXPECT_FALSE(without.profile.valid);
    EXPECT_TRUE(without.profile_json.empty());

    TrainSetup profiled = setupFor("5B");
    profiled.capture_profile = true;
    const auto with = sys.run(profiled);
    ASSERT_TRUE(with.feasible);
    ASSERT_TRUE(with.profile.valid);
    EXPECT_GT(with.profile.critical_length, 0.0);
    EXPECT_FALSE(with.profile.critical_phases.empty());
    EXPECT_FALSE(with.profile.resources.empty());

    // The full profile document parses, its critical path spans the
    // schedule, the per-resource idle causes partition the idle time,
    // and the critical-path phase shares sum to one.
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(with.profile_json, doc, &error))
        << error;
    const double makespan = doc.at("makespan_s").number();
    EXPECT_NEAR(doc.at("critical_path").at("length_s").number(),
                makespan, 1e-9 + 1e-9 * makespan);
    double share = 0.0;
    for (const JsonValue &phase :
         doc.at("critical_path").at("phases").items())
        share += phase.at("share").number();
    EXPECT_NEAR(share, 1.0, 1e-9);
    for (const JsonValue &res : doc.at("resources").items()) {
        const double idle = res.at("idle_s").number();
        const double split = res.at("idle_dependency_s").number() +
                             res.at("idle_contention_s").number() +
                             res.at("idle_tail_s").number();
        EXPECT_NEAR(split, idle, 1e-9)
            << res.at("resource").text();
        EXPECT_NEAR(res.at("busy_s").number() + idle, makespan,
                    1e-9 + 1e-9 * makespan)
            << res.at("resource").text();
    }
}

TEST(SuperOffload, ProfileImpliesTraceFlowEvents)
{
    // capture_profile + capture_trace upgrades the trace with
    // critical-path flow arrows and occupancy counter tracks.
    SuperOffloadSystem sys;
    TrainSetup setup = setupFor("5B");
    setup.capture_trace = true;
    setup.capture_profile = true;
    const auto res = sys.run(setup);
    ASSERT_TRUE(res.feasible);
    EXPECT_NE(res.trace_json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(res.trace_json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(res.trace_json.find("\"ph\":\"C\""), std::string::npos);
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(res.trace_json, doc, &error)) << error;
}

TEST(SuperOffload, StvDisabledExposesOptimizer)
{
    SuperOffloadOptions no_stv;
    no_stv.stv = false;
    const TrainSetup setup = setupFor("13B");
    const auto with = SuperOffloadSystem().run(setup);
    const auto without = SuperOffloadSystem(no_stv).run(setup);
    ASSERT_TRUE(with.feasible && without.feasible);
    EXPECT_GT(with.gpu_utilization, without.gpu_utilization + 0.1);
}

bool
sameScreenedCandidate(const runtime::SearchCandidate &a,
                      const runtime::SearchCandidate &b)
{
    return a.micro_batch == b.micro_batch &&
           a.accum_steps == b.accum_steps &&
           a.checkpointing == b.checkpointing && a.variant == b.variant;
}

/**
 * Reference: SuperOffload's search in its nested form. For each
 * screened candidate, simulate every count of the §4.3 grid and keep
 * the strictly better modelFlops / iter_time; across candidates, keep
 * the strictly better tflopsPerGpu. The grid is re-derived here from
 * eqs. 4-5 and the GPU slack, and the enumeration must list exactly it.
 */
runtime::IterationResult
nestedSearch(const SuperOffloadSystem &sys, const SuperOffloadOptions &opts,
             const TrainSetup &setup)
{
    const std::vector<runtime::SearchCandidate> lifted =
        sys.enumerateCandidates(setup);
    const BucketPlan plan = planBuckets(
        setup.model.params() / setup.cluster.totalSuperchips(),
        SuperOffloadSystem::kMaxTransferBuckets, opts.bucket_bytes);
    const hw::SuperchipSpec &chip = setup.cluster.node.superchip;

    runtime::IterationResult best;
    std::size_t next = 0;
    while (next < lifted.size()) {
        runtime::SearchCandidate cand = lifted[next];
        cand.retained_buckets = 0;
        std::vector<std::uint32_t> listed;
        for (; next < lifted.size() &&
               sameScreenedCandidate(lifted[next], cand);
             ++next)
            listed.push_back(lifted[next].retained_buckets);

        // gpuBytes (the screened footprint) is what the memory report
        // carries; the slack above it caps the grid.
        const runtime::IterationResult none =
            sys.evaluateCandidate(setup, cand);
        std::uint32_t n_max = 0;
        const double slack = chip.gpu.mem_bytes - none.memory.gpu_bytes;
        const double per_bucket =
            hw::kModelStateBytesPerParam * plan.params_per_bucket;
        if (opts.repartition && plan.count > 0 && slack > 0.0 &&
            per_bucket > 0.0)
            n_max = std::min<std::uint32_t>(
                plan.count, static_cast<std::uint32_t>(slack / per_bucket));
        const double bwd =
            plan.count
                ? runtime::IterBuilder(setup).passTimes(cand, plan.count).bwd
                : 0.0;
        const std::vector<std::uint32_t> grid = retainedCandidates(
            analyticRetainedBuckets(chip, plan, bwd,
                                    opts.grace_adam ? hw::AdamImpl::GraceAdam
                                                    : hw::AdamImpl::CpuAdam,
                                    opts.sac),
            n_max);
        EXPECT_EQ(listed, grid);

        runtime::IterationResult inner;
        bool held = false;
        for (std::uint32_t n : grid) {
            runtime::SearchCandidate retained = cand;
            retained.retained_buckets = n;
            runtime::IterationResult res =
                n == 0 ? none : sys.evaluateCandidate(setup, retained);
            if (!held || res.flops.modelFlops() / res.iter_time >
                             inner.flops.modelFlops() / inner.iter_time)
                inner = std::move(res);
            held = true;
        }
        if (!best.feasible || inner.tflopsPerGpu() > best.tflopsPerGpu())
            best = std::move(inner);
    }
    return best;
}

void
expectSameOutcome(const runtime::IterationResult &got,
                  const runtime::IterationResult &want,
                  const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_TRUE(got.feasible && want.feasible);
    EXPECT_EQ(got.iter_time, want.iter_time);
    EXPECT_EQ(got.energy.iter_j, want.energy.iter_j);
    EXPECT_EQ(got.micro_batch, want.micro_batch);
    EXPECT_EQ(got.accum_steps, want.accum_steps);
    EXPECT_EQ(got.activation_checkpointing, want.activation_checkpointing);
    EXPECT_EQ(got.notes, want.notes);
    EXPECT_EQ(got.extras, want.extras);
}

/**
 * The lifted search equals the nested one it replaced: over the option
 * combinations the benches and the planner use (the Table 2 stages,
 * forced placements, repartitioning off, the bucket-size ablation), on
 * one and four chips, run() and a 4-job SweepEngine pick the nested
 * search's winner with the same bits.
 */
TEST(SuperOffloadSearch, LiftedGridMatchesNestedSearch)
{
    std::vector<std::pair<std::string, SuperOffloadOptions>> variants;
    SuperOffloadOptions opts;
    opts.grace_adam = false;
    opts.sac = false;
    opts.stv = false;
    opts.repartition = false;
    variants.emplace_back("table2-base", opts);
    opts.grace_adam = true;
    variants.emplace_back("table2+grace", opts);
    opts.sac = true;
    variants.emplace_back("table2+sac", opts);
    opts.stv = true;
    variants.emplace_back("table2+stv", opts);
    opts.repartition = true;
    variants.emplace_back("full", opts);
    opts.placement = WeightPlacement::Stationary;
    variants.emplace_back("stationary", opts);
    opts.placement = WeightPlacement::Flow;
    variants.emplace_back("flow", opts);
    opts.placement = WeightPlacement::Auto;
    opts.stv = false;
    variants.emplace_back("ste-repartition", opts);
    opts.stv = true;
    opts.coalesce_buckets = false;
    for (double mb : {4.0, 1024.0}) {
        opts.bucket_bytes = mb * kMiB;
        variants.emplace_back("bucket-" + std::to_string(mb), opts);
    }

    const std::vector<TrainSetup> setups = {setupFor("5B"),
                                            setupFor("13B", 4, 16, 2048)};
    std::vector<std::unique_ptr<SuperOffloadSystem>> systems;
    runtime::SweepOptions sweep_opts;
    sweep_opts.jobs = 4;
    runtime::SweepEngine engine(sweep_opts);
    std::vector<runtime::IterationResult> nested;
    std::vector<std::string> names;
    for (const auto &[name, o] : variants) {
        systems.push_back(std::make_unique<SuperOffloadSystem>(o));
        for (const TrainSetup &setup : setups) {
            const std::string what = name + " on " + setup.model.name;
            nested.push_back(nestedSearch(*systems.back(), o, setup));
            expectSameOutcome(systems.back()->run(setup), nested.back(),
                              what + " (run)");
            engine.add(*systems.back(), setup);
            names.push_back(what);
        }
    }
    engine.run();
    for (std::size_t i = 0; i < nested.size(); ++i)
        expectSameOutcome(engine.result(i), nested[i],
                          names[i] + " (4-job sweep)");
}

} // namespace
} // namespace so::core
