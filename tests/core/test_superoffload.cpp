#include "core/superoffload.h"

#include <gtest/gtest.h>

#include "common/json.h"
#include "runtime/registry.h"

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

} // namespace
} // namespace so::core
