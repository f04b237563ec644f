/**
 * @file
 * Bit-identity pin for the seed two-tier configurations.
 *
 * The memory-hierarchy refactor routed every transfer primitive through
 * hw::MemoryHierarchy paths. That is meant to be a pure re-plumbing:
 * for the configurations that existed before the hierarchy (the staged
 * HBM/DDR(/NVMe) topology), every simulated schedule must be
 * *bit-identical* to the seed — same candidate search outcome, same
 * makespan, same utilizations, down to the last ULP. This test pins
 * hexfloat fingerprints captured from the pre-refactor build; any
 * change here means the hierarchy stopped being behavior-preserving
 * (or a deliberate model change needs these goldens re-captured).
 */
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "core/engine.h"
#include "core/superoffload_ulysses.h"
#include "hw/presets.h"
#include "model/config.h"
#include "runtime/registry.h"
#include "runtime/result_json.h"
#include "runtime/sweep.h"

namespace so::runtime {
namespace {

std::string
fingerprint(const IterationResult &res)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "feas=%d|iter=%a|mb=%u|acc=%u|ckpt=%d|gpu=%a|cpu=%a|"
                  "link=%a",
                  res.feasible ? 1 : 0, res.iter_time, res.micro_batch,
                  res.accum_steps, res.activation_checkpointing ? 1 : 0,
                  res.gpu_utilization, res.cpu_utilization,
                  res.link_utilization);
    return buf;
}

struct Cell
{
    const char *tag;
    hw::ClusterSpec cluster;
    const char *model;
    std::uint32_t batch;
    std::uint32_t seq;
};

const Cell kCells[] = {
    {"gh1-5B", hw::gh200Single(), "5B", 8, 1024},
    {"gh1-25B", hw::gh200Single(), "25B", 8, 1024},
    {"gh4-25B", hw::gh200ClusterOf(4), "25B", 16, 2048},
    {"gh1-80B", hw::gh200Single(), "80B", 4, 1024},
};

// Captured from the pre-hierarchy seed build (hexfloat, exact).
const std::map<std::string, std::string> kGolden = {
    {"ddp|gh1-5B",
     "feas=1|iter=0x1.e3ce51b0c2356p+0|mb=1|acc=8|ckpt=0|gpu=0x1p+0|"
     "cpu=0x0p+0|link=0x0p+0"},
    {"megatron|gh1-5B",
     "feas=1|iter=0x1.70c003dab2c75p+0|mb=8|acc=1|ckpt=1|gpu=0x1p+0|"
     "cpu=0x0p+0|link=0x0p+0"},
    {"zero2|gh1-5B",
     "feas=1|iter=0x1.70c003dab2c75p+0|mb=8|acc=1|ckpt=1|gpu=0x1p+0|"
     "cpu=0x0p+0|link=0x0p+0"},
    {"zero3|gh1-5B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-offload|gh1-5B",
     "feas=1|iter=0x1.075c375e192fep+1|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.03d6f77f20c31p-1|cpu=0x1.68d7dc270b5d9p-1|"
     "link=0x1.0430b652771bep-5"},
    {"zero-infinity|gh1-5B",
     "feas=1|iter=0x1.7b37ba16acbbfp+2|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.68e894012c69p-3|cpu=0x1.cf33e53dc7461p-4|"
     "link=0x1.5398d02a53c2bp-1"},
    {"fsdp-offload|gh1-5B",
     "feas=1|iter=0x1.0a34b1a94a3bdp+4|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.010fe8fc13e74p-4|cpu=0x1.dbcc83fe964aap-1|"
     "link=0x1.822c2b7e00d06p-8"},
    {"ulysses|gh1-5B",
     "feas=1|iter=0x1.70c003dab2c75p+0|mb=8|acc=1|ckpt=1|gpu=0x1p+0|"
     "cpu=0x0p+0|link=0x0p+0"},
    {"ulysses-zero3|gh1-5B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity-nvme|gh1-5B",
     "feas=1|iter=0x1.4938ce7a7d7a9p+4|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.9fb75b0eded48p-5|cpu=0x1.0ac5beca7b0f2p-5|"
     "link=0x1.872b13695f76cp-3"},
    {"pipeline|gh1-5B",
     "feas=1|iter=0x1.70c003dab2c72p+0|mb=8|acc=1|ckpt=1|gpu=0x1p+0|"
     "cpu=0x0p+0|link=0x0p+0"},
    {"deep-opt-states|gh1-5B",
     "feas=1|iter=0x1.2e8fe76bf5ac4p+0|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.d938d7e588bbp-1|cpu=0x0p+0|link=0x1.dbec8f4f3ad8ep-4"},
    {"superoffload|gh1-5B",
     "feas=1|iter=0x1.123600201bc45p+0|mb=8|acc=1|ckpt=0|gpu=0x1p+0|"
     "cpu=0x1.583c5bf8f3728p-1|link=0x1.524b147485f0fp-6"},
    {"ddp|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"megatron|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero2|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero3|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-offload|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"fsdp-offload|gh1-25B",
     "feas=1|iter=0x1.3e04881a5d9c2p+6|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.fcb827eb5838ep-5|cpu=0x1.dc1e0ad2c17d3p-1|"
     "link=0x1.81fc23002bcd8p-8"},
    {"ulysses|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"ulysses-zero3|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity-nvme|gh1-25B",
     "feas=1|iter=0x1.89451afcb0951p+6|mb=8|acc=1|ckpt=0|"
     "gpu=0x1.9b60386d89174p-5|cpu=0x1.0af8712652ba9p-5|"
     "link=0x1.873b16014010bp-3"},
    {"pipeline|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"deep-opt-states|gh1-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"superoffload|gh1-25B",
     "feas=1|iter=0x1.8ff70acaed308p+2|mb=4|acc=2|ckpt=0|"
     "gpu=0x1.c906d3858b1b2p-1|cpu=0x1.a9a9b6a44784ap-2|"
     "link=0x1.18009494052b4p-5"},
    {"ddp|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"megatron|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero2|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero3|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-offload|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity|gh4-25B",
     "feas=1|iter=0x1.d8fe65f8f48e4p+2|mb=4|acc=1|ckpt=0|"
     "gpu=0x1.5868c964df801p-1|cpu=0x1.bbf1c4d3efa96p-4|"
     "link=0x1.457d4542612f6p-1"},
    {"fsdp-offload|gh4-25B",
     "feas=1|iter=0x1.7c8d083298007p+4|mb=4|acc=1|ckpt=0|"
     "gpu=0x1.ac129ca4cbe87p-3|cpu=0x1.8de161cbbca31p-1|"
     "link=0x1.42bea8dfec095p-8"},
    {"ulysses|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"ulysses-zero3|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity-nvme|gh4-25B",
     "feas=1|iter=0x1.89a0d7537e65p+4|mb=4|acc=1|ckpt=0|"
     "gpu=0x1.9dd9da5cee393p-3|cpu=0x1.0aba395e58261p-5|"
     "link=0x1.871dc2cfa1e47p-3"},
    {"pipeline|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"deep-opt-states|gh4-25B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"superoffload|gh4-25B",
     "feas=1|iter=0x1.3ef906464c729p+2|mb=4|acc=1|ckpt=0|"
     "gpu=0x1.fff14c2363718p-1|cpu=0x1.f0e7dd529e56p-3|"
     "link=0x1.0ce4ff3bfdc9cp-7"},
    {"ddp|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"megatron|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero2|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero3|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-offload|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"fsdp-offload|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"ulysses|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"ulysses-zero3|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"zero-infinity-nvme|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"pipeline|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"deep-opt-states|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
    {"superoffload|gh1-80B",
     "feas=0|iter=0x0p+0|mb=0|acc=1|ckpt=0|gpu=0x0p+0|cpu=0x0p+0|"
     "link=0x0p+0"},
};

TEST(SchedulePin, SeedConfigsBitIdentical)
{
    for (const Cell &cell : kCells) {
        TrainSetup setup;
        setup.cluster = cell.cluster;
        setup.model = model::modelPreset(cell.model);
        setup.global_batch = cell.batch;
        setup.seq = cell.seq;
        for (const auto &[key, want] : kGolden) {
            const std::string tag = "|" + std::string(cell.tag);
            if (key.size() < tag.size() ||
                key.compare(key.size() - tag.size(), tag.size(), tag) !=
                    0)
                continue;
            const std::string name = key.substr(0, key.size() - tag.size());
            IterationResult res;
            if (name == "superoffload") {
                core::SuperOffloadSystem sys{core::SuperOffloadOptions{}};
                res = sys.run(setup);
            } else {
                res = makeBaseline(name)->run(setup);
            }
            EXPECT_EQ(fingerprint(res), want) << key;
        }
    }
}

TEST(SchedulePin, GoldenFingerprintsHoldAcrossJobs)
{
    // The same pinned cells, evaluated through SweepEngine at several
    // --jobs settings: the worker count must never perturb a
    // fingerprint. This is what keeps the scheduler's per-thread
    // Workspaces (event heap, ready buckets) and the graph-cached
    // dependents CSR honest under parallel sweeps — any cross-thread
    // state leak shows up here as a golden mismatch.
    core::SuperOffloadSystem so_sys{core::SuperOffloadOptions{}};
    std::vector<SystemPtr> systems; // Referenced by the engine: keep alive.
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
        SweepOptions opts;
        opts.jobs = jobs;
        SweepEngine engine(opts);
        std::vector<std::string> keys;
        for (const Cell &cell : kCells) {
            TrainSetup setup;
            setup.cluster = cell.cluster;
            setup.model = model::modelPreset(cell.model);
            setup.global_batch = cell.batch;
            setup.seq = cell.seq;
            for (const auto &[key, want] : kGolden) {
                (void)want;
                const std::string tag = "|" + std::string(cell.tag);
                if (key.size() < tag.size() ||
                    key.compare(key.size() - tag.size(), tag.size(),
                                tag) != 0)
                    continue;
                const std::string name =
                    key.substr(0, key.size() - tag.size());
                if (name == "superoffload") {
                    engine.add(so_sys, setup, key);
                } else {
                    systems.push_back(makeBaseline(name));
                    engine.add(*systems.back(), setup, key);
                }
                keys.push_back(key);
            }
        }
        engine.run();
        ASSERT_EQ(keys.size(), kGolden.size());
        for (std::size_t i = 0; i < keys.size(); ++i)
            EXPECT_EQ(fingerprint(engine.result(i)),
                      kGolden.at(keys[i]))
                << keys[i] << " jobs=" << jobs;
    }
}

TEST(SchedulePin, OwnPathCellsBitIdentical)
{
    // One feasible cell for each system the seed table cannot reach on
    // its own path: SuperOffload-Ulysses (not registered) across chips,
    // HyperOffload with NVMe-spilled layers, and the multipath system
    // with NVMe-resident optimizer states. The named extra must be
    // nonzero, proving the cell takes that path. Captured before the
    // per-candidate cost model moved into IterBuilder.
    struct Pin
    {
        const char *system;
        Cell cell;
        const char *extra;
        const char *golden;
    };
    const Pin kPins[] = {
        {"superoffload-ulysses",
         {"gh8-13B-64k", hw::gh200ClusterOf(8), "13B", 1, 64 * 1024},
         nullptr,
         "feas=1|iter=0x1.6c108647e0b15p+2|mb=1|acc=1|ckpt=0|"
         "gpu=0x1.c49ead39e0146p-1|cpu=0x1.c2e201fdf4c5cp-6|"
         "link=0x1.062166cdc25e2p-9"},
        {"hyperoffload", {"gh1-80B", hw::gh200Single(), "80B", 4, 1024},
         "nvme_layers",
         "feas=1|iter=0x1.6e8229d2e621dp+8|mb=4|acc=1|ckpt=1|"
         "gpu=0x1.0d0e65b6da2dbp-5|cpu=0x1.9b3c3b2b77424p-6|"
         "link=0x1.e93a249b8614p-10"},
        {"superoffload-multipath",
         {"gh1-25B", hw::gh200Single(), "25B", 8, 1024}, "nvme_fraction",
         "feas=1|iter=0x1.89acbc029c8bdp+3|mb=8|acc=1|ckpt=0|"
         "gpu=0x1.9d59ae6ec5636p-2|cpu=0x1.a30f277521145p-3|"
         "link=0x1.1a8d50e240e28p-6"},
    };
    for (const Pin &pin : kPins) {
        TrainSetup setup;
        setup.cluster = pin.cell.cluster;
        setup.model = model::modelPreset(pin.cell.model);
        setup.global_batch = pin.cell.batch;
        setup.seq = pin.cell.seq;
        const std::string name = pin.system;
        const IterationResult res =
            name == "superoffload-ulysses"
                ? core::SuperOffloadUlyssesSystem{}.run(setup)
                : makeBaseline(name)->run(setup);
        EXPECT_EQ(fingerprint(res), pin.golden) << name;
        if (pin.extra != nullptr)
            EXPECT_GT(res.extra(pin.extra), 0.0) << name;
    }
}

/** "<bytes>:<FNV-1a 64 hex>" of one rendered artifact. */
std::string
artifactPin(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%zu:%016llx", bytes.size(),
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Every energy resource of the result document @p text carries all
 * three idle-cause joule keys when @p profiled, and none otherwise.
 */
void
expectIdleCauseJoules(const std::string &text, bool profiled,
                      const std::string &name)
{
    JsonValue doc;
    ASSERT_TRUE(JsonValue::parse(text, doc)) << name;
    const auto &resources = doc.at("energy").at("resources").items();
    ASSERT_FALSE(resources.empty()) << name;
    for (const JsonValue &resource : resources)
        for (const char *key :
             {"idle_dependency_j", "idle_contention_j", "idle_tail_j"})
            EXPECT_EQ(resource.find(key) != nullptr, profiled)
                << name << ' ' << resource.at("resource").text() << ' '
                << key;
}

TEST(SchedulePin, CapturedArtifactBytesIdentical)
{
    // Every rendered artifact of two captured cells, byte for byte:
    // SuperOffload measures a steady-state window, ZeRO-Offload the
    // whole makespan. A refactor of the trace, profile, bundle or
    // result writers must leave these digests untouched.
    TrainSetup setup;
    setup.cluster = hw::gh200Single();
    setup.model = model::modelPreset("1B");
    setup.global_batch = 8;
    setup.seq = 1024;
    setup.capture_trace = true;
    setup.capture_profile = true;

    struct Pin
    {
        const char *system;
        const char *trace;
        const char *profile;
        const char *bundle;
        const char *result;
    };
    // Captured before the bundle and Chrome-trace writers were merged.
    const Pin kPins[] = {
        {"superoffload", "170083:4f225b196d24b3e8",
         "90665:3a09b1e1821a7380", "148254:e9aa2f54cc08ba10",
         "4497:68b2dac53df0ab51"},
        {"zero-offload", "18226:811367539db55fb2", "33551:27e59c2c9837e712",
         "14835:e78c07da2d3a9e92", "4220:1335b047c64a9c34"},
    };
    for (const Pin &pin : kPins) {
        const std::string name = pin.system;
        const IterationResult res =
            name == "superoffload"
                ? core::SuperOffloadSystem{core::SuperOffloadOptions{}}.run(
                      setup)
                : makeBaseline(name)->run(setup);
        ASSERT_TRUE(res.feasible) << name;
        EXPECT_EQ(artifactPin(res.trace_json), pin.trace) << name;
        EXPECT_EQ(artifactPin(res.profile_json), pin.profile) << name;
        EXPECT_EQ(artifactPin(res.bundle_json), pin.bundle) << name;
        EXPECT_EQ(artifactPin(toJson(res)), pin.result) << name;
        expectIdleCauseJoules(toJson(res), true, name);
    }

    // Capture off: the result document alone, whose energy section
    // comes from the profile-free meter and so carries no idle-cause
    // joules. Multipath at 25B routes part of its state over NVMe and
    // GDS, so those resources carry nonzero transfer joules.
    setup.capture_trace = false;
    setup.capture_profile = false;
    struct ResultPin
    {
        const char *system;
        const char *model;
        const char *result;
    };
    const ResultPin kResultPins[] = {
        {"superoffload", "1B", "1989:552c517ce0018518"},
        {"zero-offload", "1B", "1891:89b1a14a56fd3923"},
        {"superoffload-multipath", "25B", "2361:deacbc5eb2dc86c7"},
    };
    for (const ResultPin &pin : kResultPins) {
        const std::string name = pin.system;
        setup.model = model::modelPreset(pin.model);
        const IterationResult res =
            name == "superoffload"
                ? core::SuperOffloadSystem{core::SuperOffloadOptions{}}.run(
                      setup)
                : makeBaseline(name)->run(setup);
        ASSERT_TRUE(res.feasible) << name;
        ASSERT_FALSE(res.profile.valid) << name;
        EXPECT_EQ(artifactPin(toJson(res)), pin.result) << name;
        expectIdleCauseJoules(toJson(res), false, name);
    }
}

TEST(SchedulePin, EveryBuildersLabelsInCapturedArtifacts)
{
    // One captured cell for every registered system the test above does
    // not reach, on two Superchips so that each builder's collectives
    // (all-reduce, all-gather, reduce-scatter, all-to-all) emit their
    // labels too; SuperOffload and ZeRO-Offload join at two chips for
    // theirs. The trace, profile and bundle carry every task label, so
    // a change in how a builder names its tasks moves these digests.
    TrainSetup setup;
    setup.cluster = hw::gh200ClusterOf(2);
    setup.model = model::modelPreset("1B");
    setup.global_batch = 8;
    setup.seq = 1024;
    setup.capture_trace = true;
    setup.capture_profile = true;

    struct Pin
    {
        const char *system;
        const char *trace;
        const char *profile;
        const char *bundle;
        const char *result;
    };
    // Captured before task labels became a stem and an index.
    const Pin kPins[] = {
        {"ddp", "18081:faed92a7967a89b3",
         "30576:f5aba9b60283d78b", "14061:86464d9e82b8149d",
         "3691:2d1b59ff86022af1"},
        {"megatron", "18071:1a84fe4c36991c1d",
         "30565:3acb5a8106d9998e", "14111:3b57242297c3598f",
         "3715:2b564ca1ae938c36"},
        {"zero2", "18498:4b007fe2235cd379",
         "31399:0f71b03fbc2fdf1a", "14472:6c94483e1759ff6f",
         "3866:25657f6dac2d8ead"},
        {"zero3", "23884:506cce32ed44a2aa",
         "31443:e2e1f42d6e9baa67", "20915:e8a7a092f542fcdc",
         "3912:6b189fb234826c74"},
        {"zero-infinity", "54080:f34ac2b608afa9d8",
         "55318:4e6ba13b368c6481", "50030:a9860b3daf56e444",
         "4710:c12cceca9afbc52b"},
        {"fsdp-offload", "55529:e8c0b7d688e80023",
         "57059:be9c935cb2d24520", "43457:7b729b3d8b3d5e68",
         "4759:b973797c7a639399"},
        {"ulysses", "34730:28e15cdd037a2344",
         "42166:5f152cf42d3e2bc7", "25752:fc4c97e6cf8e82ff",
         "4110:97a4b3f7e7586352"},
        {"ulysses-zero3", "45513:5930cf5d7a93d679",
         "46512:62f000fb83c48029", "32147:149912ef7622c16a",
         "4255:7020f73182803dd6"},
        {"zero-infinity-nvme", "53261:3595b3077060f414",
         "49895:39b813d9a4e1d830", "57903:a728d10a1b960fab",
         "4577:dc1c716c4254860c"},
        {"pipeline", "2114:67d157ca9e95c48f",
         "20282:4de92b8114c161f8", "2380:da7858d39b5acabb",
         "3684:a540d141ef0cd25e"},
        {"deep-opt-states", "49707:a3bf8c99c8f8a711",
         "44069:59832230c86f2c9d", "40623:1b5d097f33df2f14",
         "4097:e475f4f6c2b410c2"},
        {"superoffload-multipath", "96110:d7df95a6b2465c90",
         "70143:fb092a7c37d7bb32", "92443:afef1e2bc39f61be",
         "5153:43e5bf3c3378591a"},
        {"hyperoffload", "43245:75bf4ee52aaff052",
         "47140:2e9a996e9e2729ca", "36591:a2be410518e76415",
         "4563:962b5cdb964df05d"},
        {"zero-offload", "20128:f75d8a6e5b1a613e",
         "34867:ebe93ddc7093277f", "16829:fbf3da4bac7c33ec",
         "4583:eb1f4dc0eba32dd3"},
        {"superoffload", "110804:deb4a4b48ed4d4b2",
         "68914:417e439198871d2e", "105914:39142fd3e94d031f",
         "4874:7e60080900cc4540"},
    };
    ASSERT_EQ(std::size(kPins), baselineNames().size() + 1);
    for (const Pin &pin : kPins) {
        const std::string name = pin.system;
        const IterationResult res =
            name == "superoffload"
                ? core::SuperOffloadSystem{core::SuperOffloadOptions{}}.run(
                      setup)
                : makeBaseline(name)->run(setup);
        ASSERT_TRUE(res.feasible) << name;
        EXPECT_EQ(artifactPin(res.trace_json), pin.trace) << name;
        EXPECT_EQ(artifactPin(res.profile_json), pin.profile) << name;
        EXPECT_EQ(artifactPin(res.bundle_json), pin.bundle) << name;
        EXPECT_EQ(artifactPin(toJson(res)), pin.result) << name;
    }
}

} // namespace
} // namespace so::runtime
